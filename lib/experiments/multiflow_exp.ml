open Ppp_core

type side = {
  label : string;
  total_pps : float;
  fw_rule_l3_refs_per_fw_packet : float;
  fw_rule_l3_miss_per_fw_packet : float;
}

type data = { separate : side; multiplexed : side; escalation : float }

let side_of label results ~fw_packets =
  let fw = Ppp_apps.More_elements.fn_firewall in
  let sum f =
    List.fold_left
      (fun acc (r : Ppp_hw.Engine.result) -> acc + f r.Ppp_hw.Engine.counters)
      0 results
  in
  {
    label;
    total_pps =
      List.fold_left
        (fun acc (r : Ppp_hw.Engine.result) -> acc +. r.Ppp_hw.Engine.throughput_pps)
        0.0 results;
    fw_rule_l3_refs_per_fw_packet =
      Runner.per_packet
        (sum (fun c -> Ppp_hw.Counters.fn_l3_refs c fw))
        ~packets:fw_packets;
    fw_rule_l3_miss_per_fw_packet =
      Runner.per_packet
        (sum (fun c -> Ppp_hw.Counters.fn_l3_misses c fw))
        ~packets:fw_packets;
  }

(* Both sources on node 0, each from its own split of the stream. FW's
   split comes first: the stream order decides every packet, and the
   multiflow golden pins it. *)
let mk_sources ~params ~heaps ~rng =
  let mk kind =
    Ppp_click.Flow.source
      (Ppp_apps.App.flow kind ~heap:heaps.(0) ~rng:(Ppp_util.Rng.split rng)
         ~scale:params.Runner.config.Ppp_hw.Machine.scale ())
  in
  let fw = mk Ppp_apps.App.FW in
  (* DPI streams its megabyte-scale automaton through the private caches
     between every two firewall packets. *)
  let dpi = mk Ppp_apps.App.DPI in
  (dpi, fw)

let measure ?(params = Runner.Params.default) () =
  let run cell flows =
    fst
      (Runner.run_with
         ~params:(Runner.Params.with_cell ("multiflow/" ^ cell) params)
         (fun _ ~heaps ~rng -> (flows (mk_sources ~params ~heaps ~rng), ())))
  in
  let sep_results =
    run "separate" (fun (dpi, fw) ->
        [
          { Ppp_hw.Engine.core = 0; label = "DPI"; source = dpi };
          { Ppp_hw.Engine.core = 1; label = "FW"; source = fw };
        ])
  in
  let fw_packets_sep =
    (List.nth sep_results 1).Ppp_hw.Engine.packets
  in
  let separate =
    side_of "separate cores (DPI + FW)" sep_results ~fw_packets:fw_packets_sep
  in
  let mux_results =
    run "multiplexed" (fun (dpi, fw) ->
        [
          {
            Ppp_hw.Engine.core = 0;
            label = "DPI+FW";
            source = Ppp_click.Multiplex.round_robin [ dpi; fw ];
          };
        ])
  in
  (* Round-robin 1:1 -> half the completed packets are FW packets. *)
  let fw_packets_mux = (List.hd mux_results).Ppp_hw.Engine.packets / 2 in
  let multiplexed =
    side_of "one core, round-robin (DPI + FW)" mux_results
      ~fw_packets:fw_packets_mux
  in
  {
    separate;
    multiplexed;
    escalation =
      multiplexed.fw_rule_l3_refs_per_fw_packet
      /. Float.max 0.01 separate.fw_rule_l3_refs_per_fw_packet;
  }

let columns =
  Output.
    [
      col "configuration" "configuration" str (fun s -> s.label);
      col "total_pps" "total pps" f0 (fun s -> s.total_pps);
      col "fw_rule_l3_refs_per_fw_packet" "FW-rule L3 refs / FW pkt" f2
        (fun s -> s.fw_rule_l3_refs_per_fw_packet);
      col "fw_rule_l3_miss_per_fw_packet" "FW-rule L3 misses / FW pkt" f2
        (fun s -> s.fw_rule_l3_miss_per_fw_packet);
    ]

let render data =
  Output.text_table
    ~title:"Section 6: one flow per core vs two flows multiplexed on one core"
    columns
    [ data.separate; data.multiplexed ]
  ^ Printf.sprintf
      "\nsharing the core multiplies the firewall's rule references that \
       escape the private caches by %.0fx —\nprivate-cache contention that \
       per-flow L3 profiling cannot see, which is why the paper sticks to \
       one flow per core.\n"
      data.escalation

let data_json data =
  let open Output in
  Json.Obj
    [
      ("separate", row columns data.separate);
      ("multiplexed", row columns data.multiplexed);
      ("escalation", Json.Float data.escalation);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
