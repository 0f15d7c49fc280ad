module Json = Ppp_telemetry.Json
module Csv = Ppp_telemetry.Csv

let schema = "ppp-monitor-alerts/1"

let f v = Json.float_repr v

let timeline_csv det =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Csv.row
       [
         "epoch"; "flow"; "core"; "t_start"; "t_end"; "packets"; "pps";
         "l3_refs_per_s"; "l3_hits_per_s"; "mem_refs_per_s"; "p50_latency";
         "p99_latency"; "ewma_pps"; "ewma_l3_refs_per_s";
         "competing_l3_refs_per_s"; "measured_drop"; "predicted_drop";
         "degraded"; "aggressor";
       ]);
  List.iter
    (fun (r : Detector.row) ->
      let rates = r.Detector.row_rates in
      Buffer.add_string buf
        (Csv.row
           [
             string_of_int r.Detector.row_epoch;
             Csv.field r.Detector.row_flow;
             string_of_int r.Detector.row_core;
             string_of_int rates.Estimator.t_start;
             string_of_int rates.Estimator.t_end;
             string_of_int rates.Estimator.packets;
             f rates.Estimator.pps;
             f rates.Estimator.l3_refs_per_sec;
             f rates.Estimator.l3_hits_per_sec;
             f rates.Estimator.mem_refs_per_sec;
             string_of_int rates.Estimator.p50_latency;
             string_of_int rates.Estimator.p99_latency;
             f rates.Estimator.ewma_pps;
             f rates.Estimator.ewma_l3_refs_per_sec;
             f r.Detector.row_competing_refs_per_sec;
             f r.Detector.row_measured_drop;
             f r.Detector.row_predicted_drop;
             (if r.Detector.row_degraded then "1" else "0");
             (if r.Detector.row_aggressor then "1" else "0");
           ]))
    (Detector.rows det);
  Buffer.contents buf

let flow_events det (p : Detector.flow_profile) =
  List.filter
    (fun (e : Detector.event) -> e.Detector.e_core = p.Detector.core)
    (Detector.events det)

(* End-of-run verdict: an armed alarm wins (aggressor over degraded, the
   cause over the symptom); a flow whose alarms all released is "recovered";
   a flow that never fired is "ok". *)
let verdict det (p : Detector.flow_profile) =
  let degraded, aggressor = Detector.alerted det ~core:p.Detector.core in
  if aggressor then "aggressor"
  else if degraded then "degraded"
  else if flow_events det p <> [] then "recovered"
  else "ok"

let verdicts det =
  List.map (fun p -> (p, verdict det p)) (Detector.profiles det)

(* The per-kind fields of an event, shared by the alerts JSON and the
   telemetry events. *)
let event_detail (e : Detector.event) =
  match e.Detector.e_kind with
  | Detector.Flow_degraded { measured_drop; predicted_drop } ->
      [
        ("measured_drop", Json.Float measured_drop);
        ("predicted_drop", Json.Float predicted_drop);
      ]
  | Detector.Hidden_aggressor { measured_refs_per_sec; profiled_refs_per_sec }
    ->
      [
        ("measured_l3_refs_per_sec", Json.Float measured_refs_per_sec);
        ("profiled_l3_refs_per_sec", Json.Float profiled_refs_per_sec);
      ]
  | Detector.Recovered { condition } -> [ ("condition", Json.Str condition) ]

let event_json (e : Detector.event) =
  Json.Obj
    (("epoch", Json.Int e.Detector.e_epoch)
    :: ("t_cycles", Json.Int e.Detector.e_t_cycles)
    :: ("flow", Json.Str e.Detector.e_flow)
    :: ("core", Json.Int e.Detector.e_core)
    :: ("kind", Json.Str (Detector.kind_name e.Detector.e_kind))
    :: event_detail e)

let alerts_json det =
  let c = Detector.config det in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "config",
        Json.Obj
          [
            ("sample_cycles", Json.Int c.Detector.sample_cycles);
            ("hysteresis", Json.Int c.Detector.hysteresis);
            ("aggressor_margin", Json.Float c.Detector.aggressor_margin);
            ("drop_margin", Json.Float c.Detector.drop_margin);
            ("ewma_alpha", Json.Float c.Detector.ewma_alpha);
            ("budget_headroom", Json.Float c.Detector.budget_headroom);
          ] );
      ("epochs", Json.Int (Detector.epochs det));
      ( "flows",
        Json.Arr
          (List.map
             (fun ((p : Detector.flow_profile), v) ->
               Json.Obj
                 [
                   ("flow", Json.Str p.Detector.label);
                   ("core", Json.Int p.Detector.core);
                   ("solo_pps", Json.Float p.Detector.solo_pps);
                   ( "profiled_l3_refs_per_sec",
                     Json.Float p.Detector.solo_l3_refs_per_sec );
                   ("has_curve", Json.Bool (p.Detector.predict_drop <> None));
                   ("events", Json.Int (List.length (flow_events det p)));
                   ("verdict", Json.Str v);
                 ])
             (verdicts det)) );
      ("events", Json.Arr (List.map event_json (Detector.events det)));
      ( "recommendations",
        Json.Arr
          (List.map
             (fun (r : Detector.recommendation) ->
               Json.Obj
                 [
                   ("flow", Json.Str r.Detector.r_flow);
                   ("core", Json.Int r.Detector.r_core);
                   ("t_cycles", Json.Int r.Detector.r_t_cycles);
                   ( "budget_l3_refs_per_sec",
                     Json.Float r.Detector.r_budget_l3_refs_per_sec );
                 ])
             (Detector.recommendations det)) );
    ]

let verdict_table det =
  let tbl =
    Ppp_util.Table.create
      ~title:"Contention monitor verdicts"
      [
        "Flow"; "Core"; "Solo Mpps"; "EWMA Mpps"; "Drop %"; "Pred %";
        "L3 Mrefs/s"; "Profiled"; "Events"; "Verdict";
      ]
  in
  let last_row core =
    List.fold_left
      (fun acc (r : Detector.row) ->
        if r.Detector.row_core = core then Some r else acc)
      None (Detector.rows det)
  in
  List.iter
    (fun ((p : Detector.flow_profile), v) ->
      let ewma_pps, drop, pred, refs =
        match last_row p.Detector.core with
        | Some r ->
            ( r.Detector.row_rates.Estimator.ewma_pps,
              r.Detector.row_measured_drop,
              r.Detector.row_predicted_drop,
              r.Detector.row_rates.Estimator.ewma_l3_refs_per_sec )
        | None -> (0.0, 0.0, 0.0, 0.0)
      in
      Ppp_util.Table.add_row tbl
        [
          p.Detector.label;
          string_of_int p.Detector.core;
          Ppp_util.Table.cell_millions p.Detector.solo_pps;
          Ppp_util.Table.cell_millions ewma_pps;
          Ppp_util.Table.cell_pct drop;
          Ppp_util.Table.cell_pct pred;
          Ppp_util.Table.cell_millions refs;
          Ppp_util.Table.cell_millions p.Detector.solo_l3_refs_per_sec;
          string_of_int (List.length (flow_events det p));
          v;
        ])
    (verdicts det);
  tbl

(* The per-kind fields of an event as text, for the printed event list. *)
let event_text (e : Detector.event) =
  match e.Detector.e_kind with
  | Detector.Flow_degraded { measured_drop; predicted_drop } ->
      Printf.sprintf "measured drop %.1f%% vs predicted %.1f%%"
        (100.0 *. measured_drop) (100.0 *. predicted_drop)
  | Detector.Hidden_aggressor { measured_refs_per_sec; profiled_refs_per_sec }
    ->
      Printf.sprintf "%.1fM L3 refs/s vs %.1fM profiled"
        (measured_refs_per_sec /. 1e6)
        (profiled_refs_per_sec /. 1e6)
  | Detector.Recovered { condition } -> condition ^ " cleared"

let events_text det =
  String.concat ""
    (List.map
       (fun (e : Detector.event) ->
         Printf.sprintf "  epoch %3d @ %d cy  %-10s core %d  %-17s %s\n"
           e.Detector.e_epoch e.Detector.e_t_cycles e.Detector.e_flow
           e.Detector.e_core
           (Detector.kind_name e.Detector.e_kind)
           (event_text e))
       (Detector.events det))

(* Detector events as telemetry events, named [monitor.<kind_name>]: they
   surface as Chrome-trace instant events and in the manifest's alerts
   section. *)
let to_telemetry_events ~cell det =
  List.map
    (fun (e : Detector.event) ->
      {
        Ppp_telemetry.Event.experiment = "";
        cell;
        t_cycles = e.Detector.e_t_cycles;
        core = e.Detector.e_core;
        flow = e.Detector.e_flow;
        name = "monitor." ^ Detector.kind_name e.Detector.e_kind;
        args = event_detail e;
      })
    (Detector.events det)

let monitored_run ~params ~config ~budgets profiles build =
  let freq_hz =
    params.Ppp_core.Runner.config.Ppp_hw.Machine.costs.Ppp_hw.Costs.freq_hz
  in
  let det = Detector.create ~config ~freq_hz profiles in
  let throttle hier (f : Ppp_hw.Engine.flow) =
    match List.assoc_opt f.Ppp_hw.Engine.core budgets with
    | Some budget ->
        {
          f with
          Ppp_hw.Engine.source =
            Ppp_core.Throttle.l3_budget_source ~budget_l3_refs_per_sec:budget
              ~hier ~core:f.Ppp_hw.Engine.core ~freq_hz f.Ppp_hw.Engine.source;
        }
    | None -> f
  in
  let results, state =
    Ppp_core.Runner.run_with ~params ~probe:(Detector.probe det)
      (fun hier ~heaps ~rng ->
        let flows, state = build hier ~heaps ~rng in
        (List.map (throttle hier) flows, state))
  in
  Detector.finalize det;
  if Ppp_telemetry.Recorder.sampling () <> None then
    Ppp_telemetry.Recorder.add_events
      (to_telemetry_events ~cell:params.Ppp_core.Runner.cell det);
  (results, state, det)
