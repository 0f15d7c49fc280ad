open Ppp_core

let profiles ?(params = Runner.Params.default) () =
  Solo_profile.table1 ~params (Ppp_apps.App.realistic @ [ Ppp_apps.App.syn_max ])

let data_json ps =
  let open Output in
  table
    [
      Col.str "flow" (fun (p : Solo_profile.t) -> Ppp_apps.App.name p.Solo_profile.kind);
      Col.num "throughput_pps" (fun p -> p.Solo_profile.throughput_pps);
      Col.num "cycles_per_instruction" (fun p ->
          p.Solo_profile.cycles_per_instruction);
      Col.num "l3_refs_per_sec" (fun p -> p.Solo_profile.l3_refs_per_sec);
      Col.num "l3_hits_per_sec" (fun p -> p.Solo_profile.l3_hits_per_sec);
      Col.num "cycles_per_packet" (fun p -> p.Solo_profile.cycles_per_packet);
      Col.num "l3_refs_per_packet" (fun p -> p.Solo_profile.l3_refs_per_packet);
      Col.num "l3_misses_per_packet" (fun p -> p.Solo_profile.l3_misses_per_packet);
      Col.num "l2_hits_per_packet" (fun p -> p.Solo_profile.l2_hits_per_packet);
      Col.num "l1_hits_per_packet" (fun p -> p.Solo_profile.l1_hits_per_packet);
    ]
    ps

let run ?params () =
  let ps = profiles ?params () in
  Output.make
    ~text:(Ppp_util.Table.to_string (Solo_profile.to_table ps))
    ~data:(data_json ps)
