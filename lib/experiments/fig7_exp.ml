open Ppp_core

type row = {
  competing_refs_per_sec : float;
  measured : float;
  per_fn : (string * float) list;
  model : float;
}

type data = { target : Ppp_apps.App.kind; rows : row list }

let tracked_fns =
  [
    Ppp_apps.Ip_elements.fn_radix_ip_lookup;
    Ppp_apps.More_elements.fn_flow_statistics;
    Ppp_apps.Ip_elements.fn_check_ip_header;
    Ppp_click.Flow.fn_skb_recycle;
  ]

let hits_per_packet (r : Ppp_hw.Engine.result) fn =
  Runner.per_packet
    (Ppp_hw.Counters.fn_l3_hits r.Ppp_hw.Engine.counters fn)
    ~packets:r.Ppp_hw.Engine.packets

let overall_hits_per_packet (r : Ppp_hw.Engine.result) =
  Runner.per_packet
    (Ppp_hw.Counters.l3_hits r.Ppp_hw.Engine.counters)
    ~packets:r.Ppp_hw.Engine.packets

let conversion ~solo ~corun = if solo <= 0.0 then 0.0 else Float.max 0.0 (1.0 -. (corun /. solo))

let measure ?(params = Runner.Params.default) () =
  let target = Ppp_apps.App.MON in
  let solo = Runner.solo ~params target in
  let config = params.Runner.config in
  let l3_lines =
    Ppp_hw.Machine.l3_bytes config / Ppp_hw.Machine.line_bytes config
  in
  let chunks =
    Ppp_apps.App.working_set_bytes target ~scale:config.Ppp_hw.Machine.scale / 64
  in
  let rows =
    Parallel.mapi
      (fun i level ->
        let params =
          Runner.cell_params params (Printf.sprintf "fig7/%d" i)
        in
        let t, competing =
          Sensitivity.corun ~params Sensitivity.Cache_only
            ~competitor:(Ppp_apps.App.SYN level) target
        in
        {
          competing_refs_per_sec = competing;
          measured =
            conversion
              ~solo:(overall_hits_per_packet solo)
              ~corun:(overall_hits_per_packet t);
          per_fn =
            List.map
              (fun fn ->
                ( Ppp_hw.Fn.name fn,
                  conversion ~solo:(hits_per_packet solo fn)
                    ~corun:(hits_per_packet t fn) ))
              tracked_fns;
          model =
            Cache_model.conversion_rate ~cache_lines:l3_lines ~chunks
              ~target_hits_per_sec:solo.Ppp_hw.Engine.l3_hits_per_sec
              ~competing_refs_per_sec:competing;
        })
      Sensitivity.default_syn_levels
  in
  let rows =
    List.sort (fun a b -> compare a.competing_refs_per_sec b.competing_refs_per_sec) rows
  in
  { target; rows }

let render data =
  let per_fn fn =
    let name = Ppp_hw.Fn.name fn in
    Output.text_col name (fun r ->
        Output.show Output.pct (List.assoc name r.per_fn))
  in
  Output.text_table
    ~title:
      (Printf.sprintf
         "Figure 7: hit-to-miss conversion (%%) of a %s flow vs cache \
          competition"
         (Ppp_apps.App.name data.target))
    (Output.
       [
         text_col "competing refs/s (M)" (fun r ->
             show millions r.competing_refs_per_sec);
         text_col "measured" (fun r -> show pct r.measured);
         text_col "model" (fun r -> show pct r.model);
       ]
    @ List.map per_fn tracked_fns)
    data.rows

let data_json data =
  let open Output in
  Json.Obj
    [
      ("target", Json.Str (Ppp_apps.App.name data.target));
      ( "rows",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ( "competing_refs_per_sec",
                     Json.Float r.competing_refs_per_sec );
                   ("measured", Json.Float r.measured);
                   ("model", Json.Float r.model);
                   ( "per_fn",
                     Json.Obj
                       (List.map (fun (fn, v) -> (fn, Json.Float v)) r.per_fn)
                   );
                 ])
             data.rows) );
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
