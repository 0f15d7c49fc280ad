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

let co_runners ~params ~heap ~rng kind =
  let config = params.Runner.config in
  List.init (Sensitivity.default_competitors config) (fun i ->
      let flow =
        Ppp_apps.App.flow kind ~heap ~rng:(Ppp_util.Rng.split rng)
          ~scale:config.Ppp_hw.Machine.scale ()
      in
      {
        Ppp_hw.Engine.core = 1 + i;
        label = Ppp_apps.App.name kind;
        source = Ppp_click.Flow.source flow;
      })

let pair_matrix ~params ~solos kinds =
  let n_competitors = Sensitivity.default_competitors params.Runner.config in
  let pair (target, competitor) =
    let params =
      Runner.cell_params params
        (Printf.sprintf "pair/%s/%s" (Ppp_apps.App.name target)
           (Ppp_apps.App.name competitor))
    in
    let specs =
      Sensitivity.placement ~config:params.Runner.config Sensitivity.Both
        ~n_competitors ~competitor ~target
    in
    match Runner.run ~params specs with
    | t :: _ as results ->
        let solo = List.assoc target solos in
        {
          target;
          competitor;
          drop = Runner.drop ~solo ~corun:t;
          competing_refs_per_sec =
            Runner.competing_refs_per_sec results ~target:t;
          target_result = t;
        }
    | [] -> assert false
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

let pct x = Printf.sprintf "%.2f" (100.0 *. x)
let millions x = Printf.sprintf "%.1f" (x /. 1e6)
