(* Flow arrival/departure over a live-flow table. A fixed number of slots
   hold the currently-live flows; each packet is drawn from a uniform
   random slot, and with probability 1/churn_every the emission is
   preceded by a departure+arrival: a random slot's flow is replaced by a
   fresh, never-before-seen id. Ids grow without bound, so the synthetic
   5-tuples are fresh too — downstream per-flow state (Flow_table) sees a
   working set much larger than its capacity and must evict for real. *)

type t = {
  flow_ids : int array; (* the live-flow table: slot -> flow id *)
  seqs : int array; (* slot -> next sequence number *)
  churn_every : int;
  mutable next_id : int;
}

let create ~live ~churn_every =
  if live <= 0 then invalid_arg "Churn.create: live must be positive";
  if churn_every <= 0 then
    invalid_arg "Churn.create: churn_every must be positive";
  {
    flow_ids = Array.init live (fun i -> i);
    seqs = Array.make live 0;
    churn_every;
    next_id = live;
  }

let source t ~rng =
  let n = Array.length t.flow_ids in
  Source.make ~name:"churn"
    ~fill:(fun src pkt ->
      if Ppp_util.Rng.int rng t.churn_every = 0 then begin
        (* departure + arrival: a random slot is taken over by a fresh
           flow; its sequence restarts at 0 *)
        let slot = Ppp_util.Rng.int rng n in
        t.flow_ids.(slot) <- t.next_id;
        t.seqs.(slot) <- 0;
        t.next_id <- t.next_id + 1
      end;
      let slot = Ppp_util.Rng.int rng n in
      let f = t.flow_ids.(slot) in
      let seq = t.seqs.(slot) in
      t.seqs.(slot) <- seq + 1;
      Gen.fill_flow pkt ~flow:f ~wire_len:64;
      Source.set_meta src ~flow:f ~seq;
      Source.Filled)
    ()
