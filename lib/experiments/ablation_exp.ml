open Ppp_core

type bound_check = {
  kind : Ppp_apps.App.kind;
  solo_hits_per_sec : float;
  bound : float;
  measured_worst : float;
}

type delta_point = {
  dram_lat_cycles : int;
  delta_ns : float;
  mon_drop : float;
}

type numa_check = {
  kind : Ppp_apps.App.kind;
  local_pps : float;
  remote_pps : float;
  penalty : float;
}

type mlp_point = {
  mlp : int;
  competing_refs_per_sec : float;
  mon_drop_mlp : float;
}

type data = {
  bounds : bound_check list;
  delta_sweep : delta_point list;
  numa : numa_check list;
  mlp_sweep : mlp_point list;
}

let worst_case_run ?(label = "worst") ~params kind =
  let solo = Runner.solo ~params kind in
  let specs =
    Sensitivity.placement ~config:params.Runner.config Sensitivity.Both
      ~n_competitors:(Sensitivity.default_competitors params.Runner.config)
      ~competitor:Ppp_apps.App.syn_max ~target:kind
  in
  let params =
    Runner.Params.with_cell
      (Printf.sprintf "ablation/%s/%s" label (Ppp_apps.App.name kind))
      params
  in
  match Runner.run ~params specs with
  | t :: _ as results ->
      ( solo,
        Runner.drop ~solo ~corun:t,
        Runner.competing_refs_per_sec results ~target:t )
  | [] -> assert false

let worst_case_drop ?label ~params kind =
  let solo, drop, _ = worst_case_run ?label ~params kind in
  (solo, drop)

let measure_bounds ~params =
  let costs = params.Runner.config.Ppp_hw.Machine.costs in
  let delta = Ppp_hw.Costs.delta_seconds costs in
  List.map
    (fun kind ->
      let solo, worst = worst_case_drop ~params kind in
      let h = solo.Ppp_hw.Engine.l3_hits_per_sec in
      {
        kind;
        solo_hits_per_sec = h;
        bound = Equation1.max_drop ~delta ~hits_per_sec:h;
        measured_worst = worst;
      })
    Exp_common.realistic

let measure_delta_sweep ~params =
  List.map
    (fun dram_lat ->
      let config = params.Runner.config in
      let costs = { config.Ppp_hw.Machine.costs with Ppp_hw.Costs.dram_lat } in
      let config = { config with Ppp_hw.Machine.costs = costs } in
      let params = { params with Runner.config = config } in
      let _, drop =
        worst_case_drop
          ~label:(Printf.sprintf "delta-%d" dram_lat)
          ~params Ppp_apps.App.MON
      in
      {
        dram_lat_cycles = dram_lat;
        delta_ns = Ppp_hw.Costs.delta_seconds costs *. 1e9;
        mon_drop = drop;
      })
    [ 61; 122; 244 ]

let measure_numa ~params =
  List.map
    (fun kind ->
      let local = Runner.solo ~params kind in
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
      let lp = local.Ppp_hw.Engine.throughput_pps in
      let rp = remote.Ppp_hw.Engine.throughput_pps in
      { kind; local_pps = lp; remote_pps = rp; penalty = (lp -. rp) /. lp })
    Ppp_apps.App.[ IP; MON; RE ]

let measure_mlp ~params =
  List.map
    (fun mlp ->
      let config = params.Runner.config in
      let costs = { config.Ppp_hw.Machine.costs with Ppp_hw.Costs.mlp } in
      let config = { config with Ppp_hw.Machine.costs = costs } in
      let params = { params with Runner.config = config } in
      let _, drop, competing =
        worst_case_run
          ~label:(Printf.sprintf "mlp-%d" mlp)
          ~params Ppp_apps.App.MON
      in
      { mlp; competing_refs_per_sec = competing; mon_drop_mlp = drop })
    [ 1; 2; 4 ]

let measure ?(params = Runner.Params.default) () =
  {
    bounds = measure_bounds ~params;
    delta_sweep = measure_delta_sweep ~params;
    numa = measure_numa ~params;
    mlp_sweep = measure_mlp ~params;
  }

let render data =
  let open Ppp_util in
  let b =
    Table.create
      ~title:
        "Ablation A: Equation-1 worst-case bound vs measured drop under 5 x \
         SYN_MAX"
      [ "flow"; "solo hits/s (M)"; "bound (%)"; "measured (%)"; "within bound" ]
  in
  List.iter
    (fun (c : bound_check) ->
      Table.add_row b
        [
          Ppp_apps.App.name c.kind;
          Exp_common.millions c.solo_hits_per_sec;
          Exp_common.pct c.bound;
          Exp_common.pct c.measured_worst;
          string_of_bool (c.measured_worst <= c.bound +. 0.03);
        ])
    data.bounds;
  let d =
    Table.create
      ~title:"Ablation B: MON drop under 5 x SYN_MAX as the miss penalty varies"
      [ "dram_lat (cycles)"; "delta (ns)"; "MON drop (%)" ]
  in
  List.iter
    (fun p ->
      Table.add_row d
        [
          string_of_int p.dram_lat_cycles;
          Printf.sprintf "%.1f" p.delta_ns;
          Exp_common.pct p.mon_drop;
        ])
    data.delta_sweep;
  let n =
    Table.create
      ~title:"Ablation C: penalty of remote (cross-QPI) data placement, solo"
      [ "flow"; "local pps"; "remote pps"; "penalty (%)" ]
  in
  List.iter
    (fun (c : numa_check) ->
      Table.add_row n
        [
          Ppp_apps.App.name c.kind;
          Printf.sprintf "%.0f" c.local_pps;
          Printf.sprintf "%.0f" c.remote_pps;
          Exp_common.pct c.penalty;
        ])
    data.numa;
  let m =
    Table.create
      ~title:
        "Ablation D: miss-overlap (MLP) factor vs attainable competition \
         (MON vs 5 x SYN_MAX)"
      [ "mlp"; "competing refs/s (M)"; "MON drop (%)" ]
  in
  List.iter
    (fun p ->
      Table.add_row m
        [
          string_of_int p.mlp;
          Exp_common.millions p.competing_refs_per_sec;
          Exp_common.pct p.mon_drop_mlp;
        ])
    data.mlp_sweep;
  Table.to_string b ^ "\n" ^ Table.to_string d ^ "\n" ^ Table.to_string n
  ^ "\n" ^ Table.to_string m

let data_json data =
  let open Output in
  Json.Obj
    [
      ( "bounds",
        table
          [
            Col.str "flow" (fun (c : bound_check) -> Ppp_apps.App.name c.kind);
            Col.num "solo_hits_per_sec" (fun c -> c.solo_hits_per_sec);
            Col.num "bound" (fun c -> c.bound);
            Col.num "measured_worst" (fun c -> c.measured_worst);
            Col.bool "within_bound" (fun c ->
                c.measured_worst <= c.bound +. 0.03);
          ]
          data.bounds );
      ( "delta_sweep",
        table
          [
            Col.int "dram_lat_cycles" (fun p -> p.dram_lat_cycles);
            Col.num "delta_ns" (fun p -> p.delta_ns);
            Col.num "mon_drop" (fun p -> p.mon_drop);
          ]
          data.delta_sweep );
      ( "numa",
        table
          [
            Col.str "flow" (fun (c : numa_check) -> Ppp_apps.App.name c.kind);
            Col.num "local_pps" (fun c -> c.local_pps);
            Col.num "remote_pps" (fun c -> c.remote_pps);
            Col.num "penalty" (fun c -> c.penalty);
          ]
          data.numa );
      ( "mlp_sweep",
        table
          [
            Col.int "mlp" (fun p -> p.mlp);
            Col.num "competing_refs_per_sec" (fun p ->
                p.competing_refs_per_sec);
            Col.num "mon_drop" (fun p -> p.mon_drop_mlp);
          ]
          data.mlp_sweep );
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
