(** The one monitored run, and the renderings of a finished {!Detector}
    run: CSV timeline, alerts JSON, verdict table, event text and telemetry
    events.

    Every rendering is a pure function of the detector's (deterministic)
    state — floats are serialized through {!Ppp_telemetry.Json.float_repr},
    so all outputs are byte-identical across job counts and suitable for
    golden snapshots. Each event kind's fields are rendered here, in all
    three forms (JSON, text, telemetry). *)

val monitored_run :
  params:Ppp_core.Runner.params ->
  config:Detector.config ->
  budgets:(int * float) list ->
  Detector.flow_profile list ->
  (Ppp_hw.Hierarchy.t ->
  heaps:Ppp_simmem.Heap.t array ->
  rng:Ppp_util.Rng.t ->
  Ppp_hw.Engine.flow list * 'a) ->
  Ppp_hw.Engine.result list * 'a * Detector.t
(** Runs the builder under a fresh detector over the profiles, on
    [params.config]'s clock, through {!Ppp_core.Runner.run_with}: the
    detector's probe observes every slice. Each core listed in [budgets]
    has its flow's source wrapped in {!Ppp_core.Throttle.l3_budget_source}
    at that L3 refs/sec budget, metered on the builder's hierarchy (pass
    [[]] for an unthrottled run, or {!Detector.budgets} of an earlier run
    to close the loop). The detector is finalized before it is returned,
    and its events are recorded under [params.cell] when the
    {!Ppp_telemetry.Recorder} samples, so every monitored run's alerts reach
    the manifest and the Chrome trace. Returns the results in flow order,
    the builder's state and the detector. *)

val timeline_csv : Detector.t -> string
(** The interpreted per-slice timeline ([monitor.csv]): one row per
    flow-epoch with instantaneous and EWMA rates, slice latency quantiles,
    competing rate, measured vs predicted drop, and the raw (pre-hysteresis)
    condition flags. *)

val alerts_json : Detector.t -> Ppp_telemetry.Json.t
(** The [alerts.json] document (schema ["ppp-monitor-alerts/1"]): config
    echo, per-flow verdicts, the typed event stream, and throttle-budget
    recommendations. *)

val verdicts : Detector.t -> (Detector.flow_profile * string) list

val verdict_table : Detector.t -> Ppp_util.Table.t
(** One row per flow: solo vs final smoothed rates, drop vs prediction,
    event count, verdict. *)

val events_text : Detector.t -> string
(** One line per fired event, in emission order: epoch, simulated time,
    flow, core, kind and the kind's measured-against-expected fields. *)
