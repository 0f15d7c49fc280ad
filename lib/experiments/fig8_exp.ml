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

let error c = c.predicted_drop -. c.measured_drop

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
    avg_error = avg error;
    avg_error_perfect = avg (fun c -> c.perfect_drop -. c.measured_drop);
  }

let max_abs_error data =
  List.fold_left
    (fun acc c -> Float.max acc (Float.abs (error c)))
    0.0 data.cells

let cell_columns =
  Output.
    [
      col "target" "target" kind (fun c -> c.target);
      json_col "competitor" kind (fun c -> c.competitor);
      text_col "competitors" (fun c -> "5 " ^ Ppp_apps.App.name c.competitor);
      col "measured_drop" "measured (%)" pct (fun c -> c.measured_drop);
      col "predicted_drop" "predicted (%)" pct (fun c -> c.predicted_drop);
      text_col "error" (fun c -> show pct (error c));
      col "perfect_drop" "perfect-knowledge (%)" pct (fun c -> c.perfect_drop);
      text_col "error (perfect)" (fun c ->
          show pct (c.perfect_drop -. c.measured_drop));
    ]

(* One target's average absolute error; the text table adds the
   perfect-knowledge average as a third column. *)
let average_columns =
  Output.
    [
      col "target" "target" kind fst;
      col "avg_abs_error" "our prediction" pct snd;
    ]

let render data =
  let perfect =
    Output.text_col "perfect knowledge" (fun (k, _) ->
        Output.show Output.pct (List.assoc k data.avg_error_perfect))
  in
  Output.text_table
    ~title:
      "Figure 8(a,b): prediction error (percentage points; positive = \
       overestimated drop)"
    cell_columns data.cells
  ^ "\n"
  ^ Output.text_table
      ~title:"Figure 8(c): average absolute prediction error per target"
      (average_columns @ [ perfect ])
      data.avg_error
  ^ Printf.sprintf "\nmax |error| = %s%%\n"
      (Output.show Output.pct (max_abs_error data))

let data_json data =
  let open Output in
  Json.Obj
    [
      ("cells", table cell_columns data.cells);
      ("avg_error", table average_columns data.avg_error);
      ("avg_error_perfect", table average_columns data.avg_error_perfect);
      ("max_abs_error", Json.Float (max_abs_error data));
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
