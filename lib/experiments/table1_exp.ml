open Ppp_core

type row = {
  kind : Ppp_apps.App.kind;
  throughput_pps : float;
  cycles_per_instruction : float;
  l3_refs_per_sec : float;
  l3_hits_per_sec : float;
  cycles_per_packet : float;
  l3_refs_per_packet : float;
  l3_misses_per_packet : float;
  l2_hits_per_packet : float;
  l1_hits_per_packet : float;
}

let of_result kind (r : Ppp_hw.Engine.result) =
  let c = r.Ppp_hw.Engine.counters in
  let per_packet n = Runner.per_packet n ~packets:r.Ppp_hw.Engine.packets in
  {
    kind;
    throughput_pps = r.Ppp_hw.Engine.throughput_pps;
    cycles_per_instruction =
      float_of_int r.Ppp_hw.Engine.window_cycles
      /. float_of_int (max 1 (Ppp_hw.Counters.instructions c));
    l3_refs_per_sec = r.Ppp_hw.Engine.l3_refs_per_sec;
    l3_hits_per_sec = r.Ppp_hw.Engine.l3_hits_per_sec;
    cycles_per_packet = per_packet r.Ppp_hw.Engine.window_cycles;
    l3_refs_per_packet = per_packet (Ppp_hw.Counters.l3_refs c);
    l3_misses_per_packet = per_packet (Ppp_hw.Counters.l3_misses c);
    l2_hits_per_packet = per_packet (Ppp_hw.Counters.l2_hits c);
    l1_hits_per_packet = per_packet (Ppp_hw.Counters.l1_hits c);
  }

let profiles ?(params = Runner.Params.default) () =
  List.map
    (fun (kind, r) -> of_result kind r)
    (Exp_common.solo_results ~params
       (Ppp_apps.App.realistic @ [ Ppp_apps.App.syn_max ]))

let columns =
  let open Output in
  let m2 = num Ppp_util.Table.cell_millions in
  [
    col "flow" "Flow" kind (fun p -> p.kind);
    json_col "throughput_pps" f0 (fun p -> p.throughput_pps);
    col "cycles_per_instruction" "cycles/instr" f2 (fun p ->
        p.cycles_per_instruction);
    col "l3_refs_per_sec" "L3 refs/sec (M)" m2 (fun p -> p.l3_refs_per_sec);
    col "l3_hits_per_sec" "L3 hits/sec (M)" m2 (fun p -> p.l3_hits_per_sec);
    col "cycles_per_packet" "cycles/packet" f0 (fun p -> p.cycles_per_packet);
    col "l3_refs_per_packet" "L3 refs/packet" f2 (fun p ->
        p.l3_refs_per_packet);
    col "l3_misses_per_packet" "L3 misses/packet" f2 (fun p ->
        p.l3_misses_per_packet);
    col "l2_hits_per_packet" "L2 hits/packet" f2 (fun p ->
        p.l2_hits_per_packet);
    json_col "l1_hits_per_packet" f2 (fun p -> p.l1_hits_per_packet);
  ]

let render rows =
  Output.text_table
    ~title:"Table 1: solo-run characteristics of each packet-processing type"
    columns rows

let run ?params () =
  let rows = profiles ?params () in
  Output.make ~text:(render rows) ~data:(Output.table columns rows)
