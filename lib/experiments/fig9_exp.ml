open Ppp_core

type flow_check = {
  kind : Ppp_apps.App.kind;
  measured_drop : float;
  predicted_drop : float;
}

type data = { flows : flow_check list; max_error : float }

let full_mix =
  Ppp_apps.App.[ MON; MON; VPN; VPN; FW; RE ]

(* The paper's 6-flow mix, clamped to what the machine can host one-per-core
   (the tiny config has 4 cores). *)
let mix_for config =
  let cores = Ppp_hw.Topology.cores config.Ppp_hw.Machine.topology in
  List.filteri (fun i _ -> i < cores) full_mix

let measure ?(params = Runner.Params.default) () =
  let mix = mix_for params.Runner.config in
  let kinds = List.sort_uniq compare mix in
  let predictor = Predictor.build ~params ~targets:kinds () in
  let specs =
    List.mapi (fun i kind -> { Runner.kind; core = i; data_node = 0 }) mix
  in
  (* Label only — the mix cell's seed predates telemetry and must not
     change (golden snapshots). *)
  let results =
    Runner.run ~params:(Runner.Params.with_cell "fig9/mix" params) specs
  in
  let flows =
    List.map2
      (fun (kind, predicted_drop, _) corun ->
        {
          kind;
          measured_drop =
            Runner.drop ~solo:(Predictor.solo predictor kind) ~corun;
          predicted_drop;
        })
      (Predictor.predict_mix predictor mix)
      results
  in
  let max_error =
    List.fold_left
      (fun acc f -> Float.max acc (Float.abs (f.predicted_drop -. f.measured_drop)))
      0.0 flows
  in
  { flows; max_error }

let columns =
  Output.
    [
      col "flow" "flow" kind (fun f -> f.kind);
      col "measured_drop" "measured (%)" pct (fun f -> f.measured_drop);
      col "predicted_drop" "predicted (%)" pct (fun f -> f.predicted_drop);
      text_col "abs error" (fun f ->
          show pct (Float.abs (f.predicted_drop -. f.measured_drop)));
    ]

let render data =
  let mix_label =
    let kinds = List.sort_uniq compare (List.map (fun f -> f.kind) data.flows) in
    kinds
    |> List.map (fun k ->
           let n =
             List.length (List.filter (fun f -> f.kind = k) data.flows)
           in
           Printf.sprintf "%d %s" n (Ppp_apps.App.name k))
    |> String.concat ", "
  in
  Output.text_table
    ~title:
      (Printf.sprintf
         "Figure 9: mixed workload (%s) — measured vs predicted drop"
         mix_label)
    columns data.flows
  ^ Printf.sprintf "\nmax |error| = %s%%\n"
      (Output.show Output.pct data.max_error)

let data_json data =
  let open Output in
  Json.Obj
    [
      ("flows", table columns data.flows);
      ("max_abs_error", Json.Float data.max_error);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
