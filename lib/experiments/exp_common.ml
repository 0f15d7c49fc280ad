open Ppp_core

let realistic = Ppp_apps.App.realistic

type pair_result = {
  target : Ppp_apps.App.kind;
  competitor : Ppp_apps.App.kind;
  drop : float;
  competing_refs_per_sec : float;
  target_result : Ppp_hw.Engine.result;
}

let solo_results ~params kinds =
  (* One cell per kind; Runner.solo derives each cell's seed. *)
  Parallel.map (fun k -> (k, Runner.solo ~params k)) kinds

let co_runners ~params kind hier ~heaps ~rng =
  Runner.spec_flows ~params
    (Sensitivity.competitors ~config:params.Runner.config Sensitivity.Both
       kind)
    hier ~heaps ~rng

let pair_matrix ~params ~solos kinds =
  let pair (target, competitor) =
    let params =
      Runner.cell_params params
        (Printf.sprintf "pair/%s/%s" (Ppp_apps.App.name target)
           (Ppp_apps.App.name competitor))
    in
    let t, competing_refs_per_sec =
      Sensitivity.corun ~params Sensitivity.Both ~competitor target
    in
    {
      target;
      competitor;
      drop = Runner.drop ~solo:(List.assoc target solos) ~corun:t;
      competing_refs_per_sec;
      target_result = t;
    }
  in
  Parallel.map pair
    (List.concat_map (fun t -> List.map (fun c -> (t, c)) kinds) kinds)

let find_pair pairs ~target ~competitor =
  List.find
    (fun p -> p.target = target && p.competitor = competitor)
    pairs

let avg_drop_per_target pairs =
  let targets =
    List.sort_uniq compare (List.map (fun p -> p.target) pairs)
  in
  List.map
    (fun t ->
      let drops =
        List.filter_map
          (fun p -> if p.target = t then Some p.drop else None)
          pairs
      in
      ( t,
        List.fold_left ( +. ) 0.0 drops /. float_of_int (List.length drops) ))
    targets
