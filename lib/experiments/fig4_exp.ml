open Ppp_core

type data = (Sensitivity.resource * Sensitivity.curve list) list

let default_levels =
  List.map
    (fun (reads, instrs) -> { Ppp_apps.App.reads; instrs })
    [
      (2, 80_000);
      (8, 20_000);
      (16, 6_000);
      (32, 2_500);
      (32, 1_200);
      (64, 1_000);
      (64, 400);
      (128, 300);
      (256, 0);
    ]

let measure ?(params = Runner.Params.default) ?(levels = default_levels)
    ?(targets = Exp_common.realistic) () =
  (* One cell per (resource, target) curve; Sensitivity.measure derives
     per-level seeds itself, so the fan-out stays order-independent. A
     target's three curves share its one solo baseline. *)
  let resources =
    [ Sensitivity.Cache_only; Sensitivity.Memctrl_only; Sensitivity.Both ]
  in
  let solos = Exp_common.solo_results ~params targets in
  let curves =
    Parallel.map
      (fun (resource, k) ->
        Sensitivity.measure ~params ~levels ~resource
          ~solo:(List.assoc k solos) k)
      (List.concat_map
         (fun resource -> List.map (fun k -> (resource, k)) targets)
         resources)
  in
  let per_target = List.length targets in
  List.mapi
    (fun i resource ->
      (resource, List.filteri (fun j _ -> j / per_target = i) curves))
    resources

let point_columns =
  Output.
    [
      col "competing_refs_per_sec" "competing refs/s (M)" millions
        (fun (p : Sensitivity.point) -> p.Sensitivity.competing_refs_per_sec);
      col "drop" "drop (%)" pct (fun p -> p.Sensitivity.drop);
      json_col "target_hits_per_sec" millions (fun p ->
          p.Sensitivity.target_hits_per_sec);
    ]

let render data =
  let grid (resource, curves) =
    (* Rows: the levels of the first curve define the x grid; the other
       curves measured the same levels so indices line up. *)
    let levels =
      match curves with
      | [] -> []
      | first :: _ -> List.mapi (fun i p -> (i, p)) first.Sensitivity.points
    in
    let drop_at (c : Sensitivity.curve) =
      Output.text_col (Ppp_apps.App.name c.Sensitivity.target) (fun (i, _) ->
          Output.show Output.pct
            (List.nth c.Sensitivity.points i).Sensitivity.drop)
    in
    Output.text_table
      ~title:
        (Printf.sprintf "Figure 4 (%s): drop (%%) vs competing L3 refs/sec (M)"
           (Sensitivity.resource_name resource))
      (Output.text_col "competing refs/s (M)" (fun (_, p) ->
           Output.show Output.millions p.Sensitivity.competing_refs_per_sec)
      :: List.map drop_at curves)
      levels
    ^ "\n"
  in
  String.concat "" (List.map grid data)

let curve_json (c : Sensitivity.curve) =
  let open Output in
  Json.Obj
    [
      ("target", Json.Str (Ppp_apps.App.name c.Sensitivity.target));
      ("solo_pps", Json.Float c.Sensitivity.solo_pps);
      ("points", table point_columns c.Sensitivity.points);
    ]

let data_json data =
  let open Output in
  Json.Arr
    (List.map
       (fun (resource, curves) ->
         Json.Obj
           [
             ("resource", Json.Str (Sensitivity.resource_name resource));
             ("curves", Json.Arr (List.map curve_json curves));
           ])
       data)

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
