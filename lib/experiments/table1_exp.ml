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

let render rows =
  let open Ppp_util in
  let t =
    Table.create
      ~title:"Table 1: solo-run characteristics of each packet-processing type"
      [
        "Flow";
        "cycles/instr";
        "L3 refs/sec (M)";
        "L3 hits/sec (M)";
        "cycles/packet";
        "L3 refs/packet";
        "L3 misses/packet";
        "L2 hits/packet";
      ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          Ppp_apps.App.name p.kind;
          Table.cell_f p.cycles_per_instruction;
          Table.cell_millions p.l3_refs_per_sec;
          Table.cell_millions p.l3_hits_per_sec;
          Printf.sprintf "%.0f" p.cycles_per_packet;
          Table.cell_f p.l3_refs_per_packet;
          Table.cell_f p.l3_misses_per_packet;
          Table.cell_f p.l2_hits_per_packet;
        ])
    rows;
  Table.to_string t

let data_json rows =
  let open Output in
  table
    [
      Col.str "flow" (fun p -> Ppp_apps.App.name p.kind);
      Col.num "throughput_pps" (fun p -> p.throughput_pps);
      Col.num "cycles_per_instruction" (fun p -> p.cycles_per_instruction);
      Col.num "l3_refs_per_sec" (fun p -> p.l3_refs_per_sec);
      Col.num "l3_hits_per_sec" (fun p -> p.l3_hits_per_sec);
      Col.num "cycles_per_packet" (fun p -> p.cycles_per_packet);
      Col.num "l3_refs_per_packet" (fun p -> p.l3_refs_per_packet);
      Col.num "l3_misses_per_packet" (fun p -> p.l3_misses_per_packet);
      Col.num "l2_hits_per_packet" (fun p -> p.l2_hits_per_packet);
      Col.num "l1_hits_per_packet" (fun p -> p.l1_hits_per_packet);
    ]
    rows

let run ?params () =
  let rows = profiles ?params () in
  Output.make ~text:(render rows) ~data:(data_json rows)
