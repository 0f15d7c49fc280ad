open Ppp_core

type bound_check = {
  kind : Ppp_apps.App.kind;
  solo_hits_per_sec : float;
  bound : float;  (* Equation 1, kappa = 1, platform delta *)
  measured_worst : float;  (* drop under 5 x SYN_MAX *)
}

type delta_point = {
  dram_lat_cycles : int;
  delta_ns : float;
  mon_drop : float;  (* MON vs 5 x SYN_MAX at this delta *)
}

type numa_check = {
  kind : Ppp_apps.App.kind;
  local_pps : float;
  remote_pps : float;
  penalty : float;  (* fractional loss from remote data *)
}

type mlp_point = {
  mlp : int;
  competing_refs_per_sec : float;  (* from 5 x SYN_MAX *)
  mon_drop_mlp : float;
}

type data = {
  bounds : bound_check list;
  delta_sweep : delta_point list;
  numa : numa_check list;
  mlp_sweep : mlp_point list;
}

(* The worst-case co-run: 5 x SYN_MAX on the target's socket, local data. *)
let worst_case ~params label kind =
  let params =
    Runner.Params.with_cell
      (Printf.sprintf "ablation/%s/%s" label (Ppp_apps.App.name kind))
      params
  in
  Sensitivity.corun ~params Sensitivity.Both ~competitor:Ppp_apps.App.syn_max
    kind

let measure ?(params = Runner.Params.default) () =
  let config = params.Runner.config in
  let own = config.Ppp_hw.Machine.costs in
  let solos = Exp_common.solo_results ~params Exp_common.realistic in
  let worsts =
    List.map (fun (kind, _) -> (kind, worst_case ~params "worst" kind)) solos
  in
  let mon = Ppp_apps.App.MON in
  (* MON's solo and worst-case runs on the machine with [costs]. At the
     machine's own costs they are the bounds phase's runs: the same seed,
     machine and flows, since the co-run's label leaves the seed alone. *)
  let mon_at label costs =
    if costs = own then
      (List.assoc mon solos, List.assoc mon worsts)
    else
      let params =
        { params with Runner.config = { config with Ppp_hw.Machine.costs } }
      in
      (Runner.solo ~params mon, worst_case ~params label mon)
  in
  let bounds =
    let delta = Ppp_hw.Costs.delta_seconds own in
    List.map
      (fun (kind, solo) ->
        let t, _ = List.assoc kind worsts in
        let h = solo.Ppp_hw.Engine.l3_hits_per_sec in
        {
          kind;
          solo_hits_per_sec = h;
          bound = Equation1.max_drop ~delta ~hits_per_sec:h;
          measured_worst = Runner.drop ~solo ~corun:t;
        })
      solos
  in
  let delta_sweep =
    List.map
      (fun dram_lat ->
        let costs = { own with Ppp_hw.Costs.dram_lat } in
        let solo, (t, _) = mon_at (Printf.sprintf "delta-%d" dram_lat) costs in
        {
          dram_lat_cycles = dram_lat;
          delta_ns = Ppp_hw.Costs.delta_seconds costs *. 1e9;
          mon_drop = Runner.drop ~solo ~corun:t;
        })
      [ 61; 122; 244 ]
  in
  let numa =
    List.map
      (fun kind ->
        let remote =
          let params =
            Runner.Params.with_cell
              ("ablation/numa/" ^ Ppp_apps.App.name kind)
              params
          in
          match
            Runner.run ~params [ { Runner.kind; core = 0; data_node = 1 } ]
          with
          | [ r ] -> r
          | _ -> assert false
        in
        let lp = (List.assoc kind solos).Ppp_hw.Engine.throughput_pps in
        let rp = remote.Ppp_hw.Engine.throughput_pps in
        { kind; local_pps = lp; remote_pps = rp; penalty = (lp -. rp) /. lp })
      Ppp_apps.App.[ IP; MON; RE ]
  in
  let mlp_sweep =
    List.map
      (fun mlp ->
        let costs = { own with Ppp_hw.Costs.mlp } in
        let solo, (t, competing) = mon_at (Printf.sprintf "mlp-%d" mlp) costs in
        {
          mlp;
          competing_refs_per_sec = competing;
          mon_drop_mlp = Runner.drop ~solo ~corun:t;
        })
      [ 1; 2; 4 ]
  in
  { bounds; delta_sweep; numa; mlp_sweep }

let bound_columns =
  Output.
    [
      col "flow" "flow" kind (fun (c : bound_check) -> c.kind);
      col "solo_hits_per_sec" "solo hits/s (M)" millions (fun c ->
          c.solo_hits_per_sec);
      col "bound" "bound (%)" pct (fun c -> c.bound);
      col "measured_worst" "measured (%)" pct (fun c -> c.measured_worst);
      col "within_bound" "within bound" bool (fun c ->
          c.measured_worst <= c.bound +. 0.03);
    ]

let delta_columns =
  Output.
    [
      col "dram_lat_cycles" "dram_lat (cycles)" int (fun p ->
          p.dram_lat_cycles);
      col "delta_ns" "delta (ns)" (num (Printf.sprintf "%.1f")) (fun p ->
          p.delta_ns);
      col "mon_drop" "MON drop (%)" pct (fun p -> p.mon_drop);
    ]

let numa_columns =
  Output.
    [
      col "flow" "flow" kind (fun (c : numa_check) -> c.kind);
      col "local_pps" "local pps" f0 (fun c -> c.local_pps);
      col "remote_pps" "remote pps" f0 (fun c -> c.remote_pps);
      col "penalty" "penalty (%)" pct (fun c -> c.penalty);
    ]

let mlp_columns =
  Output.
    [
      col "mlp" "mlp" int (fun p -> p.mlp);
      col "competing_refs_per_sec" "competing refs/s (M)" millions (fun p ->
          p.competing_refs_per_sec);
      col "mon_drop" "MON drop (%)" pct (fun p -> p.mon_drop_mlp);
    ]

let render data =
  Output.text_table
    ~title:
      "Ablation A: Equation-1 worst-case bound vs measured drop under 5 x \
       SYN_MAX"
    bound_columns data.bounds
  ^ "\n"
  ^ Output.text_table
      ~title:"Ablation B: MON drop under 5 x SYN_MAX as the miss penalty varies"
      delta_columns data.delta_sweep
  ^ "\n"
  ^ Output.text_table
      ~title:"Ablation C: penalty of remote (cross-QPI) data placement, solo"
      numa_columns data.numa
  ^ "\n"
  ^ Output.text_table
      ~title:
        "Ablation D: miss-overlap (MLP) factor vs attainable competition \
         (MON vs 5 x SYN_MAX)"
      mlp_columns data.mlp_sweep

let data_json data =
  let open Output in
  Json.Obj
    [
      ("bounds", table bound_columns data.bounds);
      ("delta_sweep", table delta_columns data.delta_sweep);
      ("numa", table numa_columns data.numa);
      ("mlp_sweep", table mlp_columns data.mlp_sweep);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
