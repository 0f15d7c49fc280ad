open Ppp_core

type data = {
  deltas : float list;
  curve_samples : (float * float list) list;
  app_points : (Ppp_apps.App.kind * float * float) list;
}

let deltas = [ 30e-9; Equation1.paper_delta; 60e-9 ]

let measure ?(params = Runner.Params.default) () =
  (* Each application sits at its Table 1 solo hits/sec; a Table 1 row
     refuses a window that completed no packet. *)
  let hits =
    List.map
      (fun (k, r) ->
        (k, (Table1_exp.of_result k r).Table1_exp.l3_hits_per_sec))
      (Exp_common.solo_results ~params Exp_common.realistic)
  in
  let max_hits =
    List.fold_left (fun acc (_, h) -> Float.max acc h) 10e6 hits *. 1.5
  in
  let samples = 13 in
  let curve_samples =
    List.init samples (fun i ->
        let h = max_hits *. float_of_int i /. float_of_int (samples - 1) in
        (h, List.map (fun d -> Equation1.max_drop ~delta:d ~hits_per_sec:h) deltas))
  in
  let app_points =
    List.map
      (fun (k, h) ->
        (k, h, Equation1.max_drop ~delta:Equation1.paper_delta ~hits_per_sec:h))
      hits
  in
  { deltas; curve_samples; app_points }

let app_columns =
  Output.
    [
      col "flow" "flow" kind (fun (k, _, _) -> k);
      col "solo_hits_per_sec" "solo hits/s (M)" millions (fun (_, h, _) -> h);
      col "max_drop" "max drop (%)" pct (fun (_, _, d) -> d);
    ]

let render data =
  let curve =
    Output.text_col "hits/s (M)" (fun (h, _) -> Output.show Output.millions h)
    :: List.mapi
         (fun i d ->
           Output.text_col
             (Printf.sprintf "delta=%.2fns" (d *. 1e9))
             (fun (_, drops) -> Output.show Output.pct (List.nth drops i)))
         data.deltas
  in
  Output.text_table
    ~title:
      "Figure 6: worst-case drop (%) vs solo cache hits/sec (Equation 1, \
       kappa = 1)"
    curve data.curve_samples
  ^ "\n"
  ^ Output.text_table
      ~title:
        (Printf.sprintf
           "Application points (delta = %.2fns): worst-case drop bound"
           (Equation1.paper_delta *. 1e9))
      app_columns data.app_points

let data_json data =
  let open Output in
  Json.Obj
    [
      ("deltas_s", Json.Arr (List.map (fun d -> Json.Float d) data.deltas));
      ( "curve",
        Json.Arr
          (List.map
             (fun (h, drops) ->
               Json.Obj
                 [
                   ("hits_per_sec", Json.Float h);
                   ( "max_drop_per_delta",
                     Json.Arr (List.map (fun d -> Json.Float d) drops) );
                 ])
             data.curve_samples) );
      ("app_points", table app_columns data.app_points);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
