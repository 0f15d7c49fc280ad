(** The JSON run manifest: provenance for a batch of experiment runs.

    Replaces the old loose stderr timing lines with structured data a CI
    job or analysis notebook can consume. Keys starting with [wall_] (and
    everything under ["wall_clock"]) are wall-clock measurements and hence
    nondeterministic; everything else is a pure function of the CLI
    invocation and the simulation. *)

type run = {
  tool : string;  (** the writing program, e.g. "repro" *)
  machine : string;  (** config name: westmere | scaled | tiny *)
  seed : int;
  warmup_cycles : int;
  measure_cycles : int;
  jobs_configured : int;  (** the [--jobs] value; 0 = auto *)
  jobs_effective : int;  (** the pool size actually used *)
  sample_cycles : int option;  (** slice length when sampling was on *)
}

val json :
  ?events:Event.t list ->
  ?profile:Recorder.profile_entry list ->
  run:run ->
  experiments:Recorder.experiment_entry list ->
  series:Timeseries.t list ->
  spans:Span.t list ->
  unit ->
  Json.t
(** Schema "ppp-telemetry/6": a [schema_version] field, one [experiments]
    entry per run experiment ({id, title, paper_ref, wall_s, data}, where
    [data] is the experiment's structured result verbatim — what
    [repro run --json] prints under the same key), an [alerts] section
    summarizing monitor events (count + per-name breakdown), and a
    [profile] section summarizing per-function-tag attribution (totals +
    per-tag breakdown with worst-core latency percentiles). Both
    sections span experiments and are always emitted; with no data they
    are the empty-but-valid shapes ({["events": 0]}, {["entries": 0]}), so
    runs that exercise neither subsystem stay schema-conforming. *)
