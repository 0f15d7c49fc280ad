(** Containing hidden aggressiveness (Section 4).

    A flow might behave tamely during offline profiling and turn aggressive
    in production (e.g. on receiving a crafted packet). The paper's defense:
    monitor each flow's memory-reference rate with hardware counters and,
    when it exceeds the profiled rate, slow the flow down with a control
    element. [l3_budget_source] implements exactly that as a wrapper around
    a flow's engine source: it reads the L3 references the flow's core has
    issued from its performance counters, compares them against the budget
    using the core's cycle counter, and inserts idle time until the average
    rate is back under budget. [Two_faced] is the flow that needs it: the
    aggressor the throttle and monitor experiments share. *)

val l3_budget_source :
  budget_l3_refs_per_sec:float ->
  hier:Ppp_hw.Hierarchy.t ->
  core:int ->
  freq_hz:float ->
  Ppp_hw.Engine.source ->
  Ppp_hw.Engine.source
(** The wrapped flow's long-run rate of L3 references, read from [core]'s
    counters in [hier] (the quantity the paper's prediction cares about),
    never exceeds the budget. Raises [Invalid_argument] if the budget is not
    positive. *)

(** A flow that switches behaviour mid-run: tame for the first
    [switch_after] packets, then maximally aggressive — the paper's
    adversarial example of a flow that lies to offline profiling. Its
    element ("TwoFacedSyn") counts under its own tag, ["two_faced_syn"]. *)
module Two_faced : sig
  val elements :
    heap:Ppp_simmem.Heap.t ->
    rng:Ppp_util.Rng.t ->
    buffer_bytes:int ->
    quiet_reads:int ->
    loud_reads:int ->
    switch_after:int ->
    Ppp_click.Element.t list

  val flow :
    heap:Ppp_simmem.Heap.t ->
    rng:Ppp_util.Rng.t ->
    scale:int ->
    switch_after:int ->
    Ppp_click.Flow.t
  (** The Section 4 aggressor that the throttle and monitor experiments
      both run: {!elements} over a 12 MiB / [scale] buffer, 4 reads per
      packet while tame and 256 once loud, on a constant packet source,
      labelled ["two-faced"]. *)
end
