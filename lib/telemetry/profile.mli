(** Attribution profiles: converts {!Ppp_hw.Attrib} accumulators into
    recorder entries and renders the profiler's user-facing exports — the
    folded flamegraph stacks and the [top]-style hot-spot report.

    Rows are function tags ({!Ppp_hw.Fn}): the same key the counters tally
    L3 behaviour by, so a profile row and the Figure 7 breakdown name the
    same code. The driver stages and most element classes issue one tag
    each; FlowClassifier issues two, [flow_classify] for its fast path and
    [classifier_upcall] for the slow path. All exports are keyed by tag
    {e name} and sorted, so profile output is byte-identical across
    [--jobs] settings. *)

val record :
  cell:string -> flow:(core:int -> string) -> Ppp_hw.Attrib.t -> unit
(** One entry per (core, tag) pair with nonzero attribution, sorted by
    (cell, core, tag name), pushed into the global {!Recorder}. [flow]
    labels the flow pinned to a core. *)

val folded_cycles : Recorder.profile_entry list -> string
(** Folded flamegraph stacks — one ["flow;tag cycles"] line per stack,
    aggregated over cores and cells, lexicographically sorted. Loadable
    directly by flamegraph.pl / inferno / speedscope. *)

val folded_l3_misses : Recorder.profile_entry list -> string
(** Same stacks weighted by L3 misses instead of cycles (lines with zero
    misses are omitted — folded format has no zero-weight stacks). *)

type element_total = {
  el_name : string;
  el_cycles : int;
  el_instructions : int;
  el_l3_hits : int;
  el_l3_misses : int;
  el_packets : int;
  el_lat_p50 : int;  (** worst core — percentiles don't sum *)
  el_lat_p90 : int;
  el_lat_p99 : int;
  el_lat_p999 : int;
}

val by_element : Recorder.profile_entry list -> element_total list
(** Totals aggregated by tag name over all cores and cells, sorted by
    descending cycles then name. Latency percentiles are the maximum over
    the aggregated (cell, core) entries — the worst core's tail. *)

val window_cycles_total : Recorder.profile_entry list -> int
(** Sum of measurement-window lengths over distinct (cell, core) pairs —
    the denominator for the report's "% of window" column. *)

val top : ?k:int -> title:string -> Recorder.profile_entry list -> string
(** The [top]-style report: the [k] (default 10) hottest tags by
    window cycles — with window share, instructions, L3 refs, miss rate
    and latency tail — then the top [k] by L3 misses. Deterministic for a
    fixed seed regardless of job count. *)
