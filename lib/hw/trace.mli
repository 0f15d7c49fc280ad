(** Packed per-packet operation traces.

    An application processes a packet by doing real work over instrumented
    data structures; the side product is a trace: the exact sequence of
    compute bursts and memory references the packet incurred. The engine
    replays traces from co-scheduled cores interleaved in simulated time,
    which is what creates cache and memory-controller contention.

    Each op packs into one int: 3 bits of kind, 6 bits of function tag
    ({!Fn}) and 53 bits of payload (an address for memory ops, an
    instruction count for compute, cycles for stalls). The tag is the one
    attribution key: the counters tally L3 behaviour by it, and the
    profiler ({!Attrib}) cycles, instructions and latency. *)

type op_kind = Compute | Read | Write | Stall | Dma

type t
(** An immutable finished trace. *)

val length : t -> int
val kind : t -> int -> op_kind
val fn : t -> int -> Fn.t
val payload : t -> int -> int

val iter : t -> (op_kind -> Fn.t -> int -> unit) -> unit
val empty : t

(** {2 Raw decode}

    The engine's replay loop decodes ops from the packed word directly: one
    (unchecked) array load via [raw], then integer-code dispatch — no variant
    construction, no repeated indexing. Everyone else should use
    {!kind}/{!fn}/{!payload}. *)

val raw : t -> int -> int
(** The packed word of op [i]. Bounds-unchecked: valid only for
    [0 <= i < length t]. *)

val raw_ops : t -> int array
(** The whole packed vector in one decode step, for the engine's burst
    loop: replaying indexes this array directly, sparing the record
    indirection of {!raw} per op. Aliases the trace's buffer — treat as
    read-only; only indices [0, length t) hold ops. *)

val raw_kind : int -> int
(** Kind code of a packed word: one of [k_compute]..[k_dma]. *)

val raw_fn : int -> Fn.t
(** Function tag of a packed word — what the counters and the profiling
    engine attribute the op to. *)

val raw_payload : int -> int

val k_compute : int
val k_read : int
val k_write : int
val k_stall : int
val k_dma : int

val mem_refs : t -> int
(** Number of Read/Write ops. *)

val instructions : t -> int
(** Total instruction count: compute payloads plus one per memory op. *)

(** Mutable builder reused across packets to avoid allocation churn. *)
module Builder : sig
  type trace = t
  type t

  val create : ?initial_capacity:int -> unit -> t

  val clear : t -> unit

  val compute : t -> fn:Fn.t -> int -> unit
  (** [compute b ~fn n] records [n] instructions of pure compute. [n <= 0] is
      ignored. *)

  val read : t -> fn:Fn.t -> int -> unit
  (** [read b ~fn addr] records a load from [addr]. *)

  val write : t -> fn:Fn.t -> int -> unit
  val stall : t -> int -> unit
  (** Idle cycles (e.g. an empty handoff queue); not counted as work. *)

  val dma : t -> int -> unit
  (** A NIC DMA write to the line holding [addr]: executed by the engine as
      a cache invalidation plus a memory-controller transaction, with no
      latency charged to the core. Models RX on a pre-DDIO platform, where
      the first core read of freshly received data is a compulsory miss. *)

  val length : t -> int

  val finish : t -> trace
  (** Snapshot the builder contents as an immutable trace (copies). *)

  val view : t -> trace
  (** Zero-copy [finish]: the returned trace aliases the builder's buffer
      and is invalidated by the next [clear] or append — including its
      identity, which is one pooled record per builder refreshed in place
      (so [view] allocates nothing). For sources that rebuild their trace
      only after the engine has fully replayed the previous one (the
      per-flow packet cycle); use [finish] when the trace must outlive the
      builder. *)
end
