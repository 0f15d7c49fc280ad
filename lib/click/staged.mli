(** Pipelined parallelization: one flow split across several cores.

    Section 2.2 of the paper compares the "parallel" approach (each packet
    fully processed by one core — {!Flow}) against the "pipeline" approach
    (each packet handled by a chain of cores connected by in-memory handoff
    queues). Handing a packet descriptor from one core to the next makes the
    consumer's reads of descriptor and header lines coherence misses, and
    recycling the buffer back to the receiving core's pool costs further
    shared-line writes — the 10-15 extra misses/packet the paper reports.

    The last stage completes packets; earlier stages contribute work items
    only, so measured throughput is the pipeline's egress rate. The first
    stage receives through {!Flow.receive}; when its source reports
    [Exhausted] it idles, as a {!Flow} does. *)

type t

val create :
  heap:Ppp_simmem.Heap.t ->
  source:Ppp_traffic.Source.t ->
  stages:Element.t list list ->
  ?queue_slots:int ->
  unit ->
  t
(** [stages] must contain at least two stages (otherwise use {!Flow}).
    [queue_slots] (default 32) is each inter-stage ring's capacity. *)

val sources : t -> Ppp_hw.Engine.source array
(** One engine source per stage, in pipeline order; place each on the core
    of your choice. *)

val forwarded : t -> int
val dropped : t -> int
