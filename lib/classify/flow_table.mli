(** The exact-match fast path: an open-addressed table from {!Ppp_net.Flowid}
    to a cached action, OVS-microflow style.

    [find] probes a short linear window; the first empty slot terminates the
    probe (slots are never emptied once filled — eviction replaces in
    place, so the invariant that makes early termination sound holds for
    the table's whole lifetime). A full window evicts a deterministic
    round-robin victim. Because the slow path is a pure function of the
    flow id, an evicted entry is re-installed with the identical action on
    its next miss — eviction affects performance, never results. *)

type t

val absent : int
(** Returned by {!find} on a miss. Distinct from any cached action,
    including a cached {!Rule.no_match} (a "drop" megaflow). *)

val create : heap:Ppp_simmem.Heap.t -> ?probe_limit:int -> entries:int -> unit -> t
(** Capacity is rounded up to a power of two, minimum 16.
    Raises [Invalid_argument] if [entries <= 0]. *)

val capacity : t -> int

val find :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> Ppp_net.Packet.t -> int
(** Instrumented, allocation-free probe keyed on the packet's 5-tuple.
    Counts a hit or a miss. *)

val install :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> Ppp_net.Flowid.t -> int -> unit
(** Install (or refresh) the action cached for a flow; evicts when the
    probe window is full. Counts an install, and an eviction if one
    happened. The action may be {!Rule.no_match} (a cached drop), never
    {!absent}. *)

val find_flowid : t -> Ppp_net.Flowid.t -> int
(** Quiet exact lookup by flow id (tests; does not touch counters). *)

val hits : t -> int
val misses : t -> int
val installs : t -> int
val evictions : t -> int
