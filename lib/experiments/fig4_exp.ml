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

let render data =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (resource, curves) ->
      let open Ppp_util in
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 4 (%s): drop (%%) vs competing L3 refs/sec (M)"
               (Sensitivity.resource_name resource))
          ("competing refs/s (M)"
          :: List.map
               (fun (c : Sensitivity.curve) -> Ppp_apps.App.name c.Sensitivity.target)
               curves)
      in
      (* Rows: the levels of the first curve define the x grid; the other
         curves measured the same levels so indices line up. *)
      (match curves with
      | [] -> ()
      | first :: _ ->
          List.iteri
            (fun i (p : Sensitivity.point) ->
              Table.add_row t
                (Exp_common.millions p.Sensitivity.competing_refs_per_sec
                :: List.map
                     (fun (c : Sensitivity.curve) ->
                       let q = List.nth c.Sensitivity.points i in
                       Exp_common.pct q.Sensitivity.drop)
                     curves))
            first.Sensitivity.points);
      Buffer.add_string buf (Table.to_string t);
      Buffer.add_char buf '\n')
    data;
  Buffer.contents buf

let curve_json (c : Sensitivity.curve) =
  let open Output in
  Json.Obj
    [
      ("target", Json.Str (Ppp_apps.App.name c.Sensitivity.target));
      ("solo_pps", Json.Float c.Sensitivity.solo_pps);
      ( "points",
        table
          [
            Col.num "competing_refs_per_sec" (fun (p : Sensitivity.point) ->
                p.Sensitivity.competing_refs_per_sec);
            Col.num "drop" (fun p -> p.Sensitivity.drop);
            Col.num "target_hits_per_sec" (fun p ->
                p.Sensitivity.target_hits_per_sec);
          ]
          c.Sensitivity.points );
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
