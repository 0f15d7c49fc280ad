open Ppp_core

type cell = {
  target : Ppp_apps.App.kind;
  competitor : Ppp_apps.App.kind;
  measured_drop : float;
  predicted_drop : float;  (* using competitors' solo refs/sec *)
  perfect_drop : float;  (* using refs/sec measured during the co-run *)
}

type data = {
  cells : cell list;
  avg_error : (Ppp_apps.App.kind * float) list;  (* ours, absolute *)
  avg_error_perfect : (Ppp_apps.App.kind * float) list;
}

let measure ?(params = Runner.Params.default) () =
  let kinds = Exp_common.realistic in
  let predictor = Predictor.build ~params ~targets:kinds () in
  let solos = List.map (fun k -> (k, Predictor.solo predictor k)) kinds in
  let pairs = Exp_common.pair_matrix ~params ~solos kinds in
  let cells =
    List.map
      (fun (p : Exp_common.pair_result) ->
        let competitors = List.init 5 (fun _ -> p.Exp_common.competitor) in
        {
          target = p.Exp_common.target;
          competitor = p.Exp_common.competitor;
          measured_drop = p.Exp_common.drop;
          predicted_drop =
            Predictor.predict_drop predictor ~target:p.Exp_common.target
              ~competitors;
          perfect_drop =
            Predictor.predict_drop_at predictor ~target:p.Exp_common.target
              ~refs_per_sec:p.Exp_common.competing_refs_per_sec;
        })
      pairs
  in
  let avg f =
    List.map
      (fun t ->
        let errors =
          List.filter_map
            (fun c -> if c.target = t then Some (Float.abs (f c)) else None)
            cells
        in
        ( t,
          List.fold_left ( +. ) 0.0 errors
          /. float_of_int (List.length errors) ))
      kinds
  in
  {
    cells;
    avg_error = avg (fun c -> c.predicted_drop -. c.measured_drop);
    avg_error_perfect = avg (fun c -> c.perfect_drop -. c.measured_drop);
  }

let max_abs_error data =
  List.fold_left
    (fun acc c -> Float.max acc (Float.abs (c.predicted_drop -. c.measured_drop)))
    0.0 data.cells

let render data =
  let open Ppp_util in
  let t =
    Table.create
      ~title:
        "Figure 8(a,b): prediction error (percentage points; positive = \
         overestimated drop)"
      [
        "target";
        "competitors";
        "measured (%)";
        "predicted (%)";
        "error";
        "perfect-knowledge (%)";
        "error (perfect)";
      ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          Ppp_apps.App.name c.target;
          "5 " ^ Ppp_apps.App.name c.competitor;
          Exp_common.pct c.measured_drop;
          Exp_common.pct c.predicted_drop;
          Exp_common.pct (c.predicted_drop -. c.measured_drop);
          Exp_common.pct c.perfect_drop;
          Exp_common.pct (c.perfect_drop -. c.measured_drop);
        ])
    data.cells;
  let avg =
    Table.create
      ~title:"Figure 8(c): average absolute prediction error per target"
      [ "target"; "our prediction"; "perfect knowledge" ]
  in
  List.iter
    (fun (k, e) ->
      Table.add_row avg
        [
          Ppp_apps.App.name k;
          Exp_common.pct e;
          Exp_common.pct (List.assoc k data.avg_error_perfect);
        ])
    data.avg_error;
  Table.to_string t ^ "\n" ^ Table.to_string avg
  ^ Printf.sprintf "\nmax |error| = %s%%\n" (Exp_common.pct (max_abs_error data))

let data_json data =
  let open Output in
  let avg name pairs =
    ( name,
      table
        [
          Col.str "target" (fun (k, _) -> Ppp_apps.App.name k);
          Col.num "avg_abs_error" snd;
        ]
        pairs )
  in
  Json.Obj
    [
      ( "cells",
        table
          [
            Col.str "target" (fun c -> Ppp_apps.App.name c.target);
            Col.str "competitor" (fun c -> Ppp_apps.App.name c.competitor);
            Col.num "measured_drop" (fun c -> c.measured_drop);
            Col.num "predicted_drop" (fun c -> c.predicted_drop);
            Col.num "perfect_drop" (fun c -> c.perfect_drop);
          ]
          data.cells );
      avg "avg_error" data.avg_error;
      avg "avg_error_perfect" data.avg_error_perfect;
      ("max_abs_error", Json.Float (max_abs_error data));
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
