(** Per-(core, function tag) attribution accumulators — the profiler's
    backing store.

    Created by the caller and passed to {!Engine.run} via [?attrib]; the
    engine then attributes every replayed op's cycles and instructions to
    the function tag it carries ({!Trace.raw_fn}), and every in-window
    packet's per-tag time to a latency histogram. The tag is the same one
    the counters tally L3 behaviour by, so the L3 columns here are the
    window counters' own per-tag tallies ({!Counters.fn_l3_hits}), handed
    over by the engine when it closes each core's window. All hot-path
    state is preallocated flat int arrays indexed [core * Fn.max_tags +
    fn], so profiling adds no allocation to the engine's op path; with no
    [?attrib] the engine skips attribution behind one hoisted branch and
    its hot path is untouched (the [alloc] test suite pins 0 B per op
    either way).

    Window totals follow the engine's snapshot convention exactly (warmup
    crossing op excluded, window-end crossing op included), so for every
    core the per-tag sums of instructions / L3 hits / L3 misses equal the
    window {!Counters.diff}, and per-tag cycles sum to [window_cycles] —
    the conservation law the test suite pins. *)

type t

val create : cores:int -> t
(** Accumulators for cores [0, cores); all counters zero. *)

val none : t
(** Shared placeholder for the profiling-off engine path; never written. *)

(** {2 Engine-side recording} *)

val op :
  t -> core:int -> fn:Fn.t -> instrs:int -> cycles:int -> in_window:bool ->
  unit
(** One replayed op: [cycles] of time, plus [instrs] instructions (one for
    a memory op, none for a stall) when [in_window]. *)

val finish_trace : t -> core:int -> record:bool -> unit
(** End of one source item: when [record], each tag touched by the trace
    records its accumulated cycles into its (core, fn) latency histogram —
    summed over tags that reproduces the packet's engine latency exactly;
    either way the per-trace scratch is reset. *)

val set_window :
  t -> core:int -> start:int -> cycles:int -> counters:Counters.t -> unit
(** Filled in by the engine at result construction: the core's measurement
    window placement (denominators for rate and share columns) and its
    window counter delta, the source of the L3 columns. *)

(** {2 Readouts} *)

val cores : t -> int
val cycles : t -> core:int -> fn:Fn.t -> int
val instructions : t -> core:int -> fn:Fn.t -> int

val l3_hits : t -> core:int -> fn:Fn.t -> int
(** The window counters' [fn_l3_hits]; 0 before the window closes. *)

val l3_misses : t -> core:int -> fn:Fn.t -> int

val latency : t -> core:int -> fn:Fn.t -> Ppp_util.Histogram.t option
(** Per-packet time spent under this tag, packets completing in the window;
    [None] when no such packet touched the tag. *)

val window_start : t -> core:int -> int
val window_cycles : t -> core:int -> int
