(** File-writing glue over the {!Recorder}: what the CLIs call after a run.

    Layout of a metrics directory:
    - [series.csv] — simulated-time counter series (deterministic)
    - [spans.csv] — wall-clock runner spans (nondeterministic)
    - [manifest.json] — run provenance + per-experiment wall-clock and
      structured results *)

val ensure_dir : string -> unit
(** Creates the directory (and parents) if needed — the shared helper
    behind the CLIs' [--metrics], [--profile-out] and [--monitor-out]
    destinations, which call it before anything runs. Idempotent. *)

val deterministic_trace : meta:(string * Json.t) list -> Json.t
(** The Chrome trace restricted to its deterministic (simulated-time)
    subset: counter series, monitor instant events and profile slices, no
    wall-clock spans. What the golden tests snapshot. *)

val write_trace : path:string -> meta:(string * Json.t) list -> unit
(** Full Chrome trace (simulated tracks + wall-clock spans) to [path]. *)

val write_metrics_dir : dir:string -> run:Manifest.run -> unit
(** Creates [dir] (and parents) if needed and writes the three files. *)

val write_profile_dir : dir:string -> unit
(** Writes the profiler's flamegraph-ready exports from the recorder's
    profile entries into [dir] (created if needed):
    - [profile_cycles.folded] — folded stacks weighted by cycles
    - [profile_l3_misses.folded] — folded stacks weighted by L3 misses
    - [top.txt] — the {!Profile.top} hot-spot report over all cells
    All three are byte-deterministic across job counts. *)

val write_monitor_dir : dir:string -> alerts:Json.t -> timeline_csv:string -> unit
(** Writes a contention-monitor run's interpreted outputs: [alerts.json]
    (the typed event stream + per-flow verdicts, built by
    [Ppp_monitor.Report.alerts_json]) and [monitor.csv] (the per-slice
    interpreted timeline). Both are simulated-time data and therefore
    byte-deterministic across job counts. *)
