type entry = { solo : Ppp_hw.Engine.result; series : Ppp_util.Series.t }
type t = (Ppp_apps.App.kind * entry) list

let build ?(params = Runner.Params.default) ?levels ~targets () =
  Parallel.map
    (fun kind ->
      let solo = Runner.solo ~params kind in
      let curve =
        Sensitivity.measure ~params ?levels ~resource:Sensitivity.Both ~solo
          kind
      in
      (kind, { solo; series = Sensitivity.to_series curve }))
    targets

let find t kind =
  match List.assoc_opt kind t with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Predictor: kind %s was not profiled"
           (Ppp_apps.App.name kind))

let solo t kind = (find t kind).solo
let solo_refs_per_sec t kind = (solo t kind).Ppp_hw.Engine.l3_refs_per_sec
let solo_throughput t kind = (solo t kind).Ppp_hw.Engine.throughput_pps

let predict_drop_at t ~target ~refs_per_sec =
  Ppp_util.Series.eval (find t target).series refs_per_sec

let predict_drop t ~target ~competitors =
  let refs =
    List.fold_left (fun acc c -> acc +. solo_refs_per_sec t c) 0.0 competitors
  in
  predict_drop_at t ~target ~refs_per_sec:refs

let predict_throughput t ~target ~competitors =
  solo_throughput t target *. (1.0 -. predict_drop t ~target ~competitors)

let predict_mix t mix =
  List.mapi
    (fun i target ->
      let competitors = List.filteri (fun j _ -> j <> i) mix in
      let drop = predict_drop t ~target ~competitors in
      (target, drop, solo_throughput t target *. (1.0 -. drop)))
    mix
