(** Per-(core, element) attribution accumulators — the profiler's backing
    store.

    Created by the caller and passed to {!Engine.run} via [?attrib]; the
    engine then attributes every replayed op's cycles, instructions and L3
    events to the element id stamped on the op ({!Trace.elem}), and every
    in-window packet's per-element time to a latency histogram. All hot-path
    state is preallocated flat int arrays indexed [core * Eid.max_ids +
    elem], so profiling adds no allocation to the engine's op path; with no
    [?attrib] the engine skips attribution behind one hoisted branch and
    its hot path is untouched (the [alloc] test suite pins 0 B per op
    either way).

    Window totals follow the engine's snapshot convention exactly (warmup
    crossing op excluded, window-end crossing op included), so for every
    core the per-element sums of instructions / L3 hits / L3 misses equal
    the window {!Counters.diff}, and per-element cycles sum to
    [window_cycles] — the conservation law the test suite pins.

    Raw element ids are registration-order dependent ({!Eid}); consumers
    must aggregate by {!Eid.name}. *)

type t

val create : cores:int -> t
(** Accumulators for cores [0, cores); all counters zero. *)

val none : t
(** Shared placeholder for the profiling-off engine path; never written. *)

(** {2 Engine-side recording} *)

val mem_op :
  t -> core:int -> elem:Eid.t -> cycles:int -> l3_hit:int -> l3_miss:int ->
  in_window:bool -> unit
(** One memory op: [cycles] of latency, plus one instruction and the L3
    hit/miss deltas (each 0 or 1, diffed around the hierarchy access) when
    [in_window]. *)

val compute_op :
  t -> core:int -> elem:Eid.t -> instrs:int -> cycles:int -> in_window:bool ->
  unit

val stall_op :
  t -> core:int -> elem:Eid.t -> cycles:int -> in_window:bool -> unit
(** Stall cycles attribute time but no instructions or cache events. *)

val finish_trace : t -> core:int -> record:bool -> unit
(** End of one source item: when [record], each element touched by the
    trace records its accumulated cycles into its (core, elem) latency
    histogram — summed over elements that reproduces the packet's engine
    latency exactly; either way the per-trace scratch is reset. *)

val set_window : t -> core:int -> start:int -> cycles:int -> unit
(** Filled in by the engine at result construction: the core's measurement
    window placement, denominators for rate and share columns. *)

(** {2 Readouts} *)

val cores : t -> int
val cycles : t -> core:int -> elem:Eid.t -> int
val instructions : t -> core:int -> elem:Eid.t -> int
val l3_hits : t -> core:int -> elem:Eid.t -> int
val l3_misses : t -> core:int -> elem:Eid.t -> int

val latency : t -> core:int -> elem:Eid.t -> Ppp_util.Histogram.t option
(** Per-packet time spent in this element, packets completing in the
    window; [None] when no such packet touched the element. *)

val window_start : t -> core:int -> int
val window_cycles : t -> core:int -> int
