(* Markov-modulated burstiness: a two-state (ON/OFF) wrapper around a base
   source. In OFF the base source supplies background traffic; in ON one
   burst flow (chosen at burst start) monopolizes the link. State dwell
   times are geometric — before each packet a 1-in-mean draw decides
   whether to flip — so the mean burst length is [mean_on] packets and the
   long-run ON fraction converges to mean_on / (mean_on + mean_off). *)

type t = {
  mean_on : int;
  mean_off : int;
  burst_flows : int;
  flow_base : int;
  seq : int array; (* per-burst-flow sequence counters *)
  mutable on : bool;
  mutable burst : int; (* index of the current burst flow *)
  mutable on_packets : int;
  mutable off_packets : int;
}

let create ~mean_on ~mean_off ~burst_flows ?(flow_base = 0) () =
  if mean_on <= 0 || mean_off <= 0 then
    invalid_arg "Onoff.create: mean durations must be positive";
  if burst_flows <= 0 then
    invalid_arg "Onoff.create: burst_flows must be positive";
  {
    mean_on;
    mean_off;
    burst_flows;
    flow_base;
    seq = Array.make burst_flows 0;
    on = false;
    burst = 0;
    on_packets = 0;
    off_packets = 0;
  }

let duty_cycle t =
  let total = t.on_packets + t.off_packets in
  if total = 0 then 0.0 else float_of_int t.on_packets /. float_of_int total

let source t ~rng ~base =
  Source.make ~name:"onoff"
    ~fill:(fun src pkt ->
      (* Geometric dwell: flip with probability 1/mean before each packet. *)
      if t.on then begin
        if Ppp_util.Rng.int rng t.mean_on = 0 then t.on <- false
      end
      else if Ppp_util.Rng.int rng t.mean_off = 0 then begin
        t.on <- true;
        t.burst <- Ppp_util.Rng.int rng t.burst_flows
      end;
      if t.on then begin
        let f = t.burst in
        let seq = t.seq.(f) in
        t.seq.(f) <- seq + 1;
        Gen.fill_flow pkt ~flow:(t.flow_base + f) ~wire_len:64;
        Source.set_meta src ~flow:(t.flow_base + f) ~seq;
        t.on_packets <- t.on_packets + 1;
        Source.Filled
      end
      else
        match Source.fill base pkt with
        | Source.Filled ->
            Source.set_meta src ~flow:(Source.last_flow base)
              ~seq:(Source.last_seq base);
            t.off_packets <- t.off_packets + 1;
            Source.Filled
        | Source.Exhausted -> Source.Exhausted)
    ()
