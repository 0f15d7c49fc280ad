(** Chrome trace-event (Perfetto / chrome://tracing) export.

    The trace carries two clearly segregated groups of tracks:

    - {b Simulated time} (deterministic): one process per experiment cell,
      one thread per simulated core, counter events ("C" phase) for L3
      hits+misses per second, packets per second and latency quantiles,
      plus thread-scoped instant events ("i" phase) for monitor alerts and
      complete events ("X" phase) for per-function-tag profile attribution
      (each core's window laid out as one slice per tag, spanning its
      attributed cycles). Timestamps are {e simulated cycles} (the viewer
      will label them as microseconds; 1 displayed us = 1 cycle).
    - {b Wall clock} (nondeterministic, optional): a single process of
      "X"-phase slices, one thread per OCaml domain, showing runner cells
      and parallel-pool work items with their queue wait.

    With [include_wall_clock:false] the output is a pure function of the
    simulation — that subset is what the golden tests snapshot. *)

val trace :
  ?include_wall_clock:bool ->
  ?events:Event.t list ->
  ?profile:Recorder.profile_entry list ->
  series:Timeseries.t list ->
  spans:Span.t list ->
  meta:(string * Json.t) list ->
  unit ->
  Json.t
(** [include_wall_clock] defaults to [true]; [events] (default []) become
    simulated-clock instant events; [profile] entries (default []) become
    simulated-clock "X" slices. [meta] lands in the trace's ["otherData"];
    keep it deterministic if the trace is to be snapshotted. [series],
    [events] and [profile] should already be in {!Timeseries.compare} /
    {!Event.compare} / (cell, core, elem) order (as returned by the
    {!Recorder}). *)
