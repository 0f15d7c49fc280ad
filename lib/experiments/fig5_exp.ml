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

let render data =
  let open Ppp_util in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (kind, curve) ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf "Figure 5 — %s(S): SYN sensitivity curve"
               (Ppp_apps.App.name kind))
          [ "competing refs/s (M)"; "drop (%)" ]
      in
      List.iter
        (fun (p : Sensitivity.point) ->
          Table.add_row t
            [
              Exp_common.millions p.Sensitivity.competing_refs_per_sec;
              Exp_common.pct p.Sensitivity.drop;
            ])
        curve.Sensitivity.points;
      Buffer.add_string buf (Table.to_string t);
      Buffer.add_char buf '\n')
    data.curves;
  let t =
    Table.create
      ~title:
        "Figure 5 — realistic points X(R) against the SYN curve at the same \
         competing refs/sec"
      [
        "target";
        "competitors";
        "competing refs/s (M)";
        "measured drop (%)";
        "SYN-curve drop (%)";
        "deviation (pp)";
      ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          Ppp_apps.App.name c.target;
          "5 " ^ Ppp_apps.App.name c.competitor;
          Exp_common.millions c.competing_refs_per_sec;
          Exp_common.pct c.measured_drop;
          Exp_common.pct c.curve_drop;
          Exp_common.pct (c.measured_drop -. c.curve_drop);
        ])
    data.checks;
  Buffer.add_string buf (Table.to_string t);
  Printf.bprintf buf "\nmax |deviation| = %s%%\n"
    (Exp_common.pct (max_deviation data));
  Buffer.contents buf

let data_json data =
  let open Output in
  Json.Obj
    [
      ( "curves",
        Json.Arr (List.map (fun (_, c) -> Fig4_exp.curve_json c) data.curves)
      );
      ( "checks",
        table
          [
            Col.str "target" (fun c -> Ppp_apps.App.name c.target);
            Col.str "competitor" (fun c -> Ppp_apps.App.name c.competitor);
            Col.num "competing_refs_per_sec" (fun c ->
                c.competing_refs_per_sec);
            Col.num "measured_drop" (fun c -> c.measured_drop);
            Col.num "curve_drop" (fun c -> c.curve_drop);
          ]
          data.checks );
      ("max_deviation", Json.Float (max_deviation data));
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
