open Ppp_core

type point_check = {
  target : Ppp_apps.App.kind;
  competitor : Ppp_apps.App.kind;
  competing_refs_per_sec : float;
  measured_drop : float;
  curve_drop : float;
}

type data = {
  curves : (Ppp_apps.App.kind * Sensitivity.curve) list;
  checks : point_check list;
}

let measure ?(params = Runner.Params.default) () =
  let kinds = Exp_common.realistic in
  let solos = Exp_common.solo_results ~params kinds in
  let curves =
    Parallel.map
      (fun k ->
        ( k,
          Sensitivity.measure ~params ~resource:Sensitivity.Both
            ~solo:(List.assoc k solos) k ))
      kinds
  in
  let pairs = Exp_common.pair_matrix ~params ~solos kinds in
  let checks =
    List.map
      (fun (p : Exp_common.pair_result) ->
        let series = Sensitivity.to_series (List.assoc p.Exp_common.target curves) in
        {
          target = p.Exp_common.target;
          competitor = p.Exp_common.competitor;
          competing_refs_per_sec = p.Exp_common.competing_refs_per_sec;
          measured_drop = p.Exp_common.drop;
          curve_drop =
            Ppp_util.Series.eval series p.Exp_common.competing_refs_per_sec;
        })
      pairs
  in
  { curves; checks }

let max_deviation data =
  List.fold_left
    (fun acc c -> Float.max acc (Float.abs (c.measured_drop -. c.curve_drop)))
    0.0 data.checks

let check_columns =
  Output.
    [
      col "target" "target" kind (fun c -> c.target);
      json_col "competitor" kind (fun c -> c.competitor);
      text_col "competitors" (fun c -> "5 " ^ Ppp_apps.App.name c.competitor);
      col "competing_refs_per_sec" "competing refs/s (M)" millions (fun c ->
          c.competing_refs_per_sec);
      col "measured_drop" "measured drop (%)" pct (fun c -> c.measured_drop);
      col "curve_drop" "SYN-curve drop (%)" pct (fun c -> c.curve_drop);
      text_col "deviation (pp)" (fun c ->
          show pct (c.measured_drop -. c.curve_drop));
    ]

let render data =
  String.concat ""
    (List.map
       (fun (kind, curve) ->
         Output.text_table
           ~title:
             (Printf.sprintf "Figure 5 — %s(S): SYN sensitivity curve"
                (Ppp_apps.App.name kind))
           Fig4_exp.point_columns curve.Sensitivity.points
         ^ "\n")
       data.curves)
  ^ Output.text_table
      ~title:
        "Figure 5 — realistic points X(R) against the SYN curve at the same \
         competing refs/sec"
      check_columns data.checks
  ^ Printf.sprintf "\nmax |deviation| = %s%%\n"
      (Output.show Output.pct (max_deviation data))

let data_json data =
  let open Output in
  Json.Obj
    [
      ( "curves",
        Json.Arr (List.map (fun (_, c) -> Fig4_exp.curve_json c) data.curves)
      );
      ("checks", table check_columns data.checks);
      ("max_deviation", Json.Float (max_deviation data));
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
