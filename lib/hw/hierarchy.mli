(** The simulated memory hierarchy: private L1/L2 per core, an inclusive
    shared L3 per socket with a presence-bit directory, and per-node memory
    controllers.

    Inclusion is an invariant, not a hope: every line a private cache holds
    is resident in its socket's L3 and marked in that line's directory
    bits, so evicting an L3 line back-invalidates the private copies and a
    DMA write touches only the L3 and the holders it names. The test
    suite's reference-hierarchy differential checks it after every op.

    This module turns a single memory reference from one core into a latency,
    mutating shared cache state as a side effect — which is exactly how
    co-running flows damage each other: their interleaved references evict
    each other's L3 lines (Figure 4(a)) and queue behind each other at the
    memory controller (Figure 4(b)). *)

type geometry = {
  l1 : Cache.geometry;
  l2 : Cache.geometry;
  l3 : Cache.geometry;  (** one shared L3 per socket *)
}

type t

val create : Topology.t -> Costs.t -> geometry -> t
val costs : t -> Costs.t
val counters : t -> int -> Counters.t
(** Per-core counters. *)

val access : t -> core:int -> write:bool -> fn:Fn.t -> addr:int -> now:int -> int
(** [access t ~core ~write ~fn ~addr ~now] performs one load/store and
    returns its latency in cycles. [now] is the core's current cycle (used
    for memory-controller queueing). Raises [Invalid_argument] when [addr]'s
    home node ({!Topology.node_of_addr}) is one the machine lacks. *)

val dma_write : t -> addr:int -> now:int -> unit
(** A NIC DMA write to the line containing [addr]: the line is discarded
    from every cache (all sockets, all private caches) and one transaction
    is charged to the home node's memory controller. No core waits. Raises
    [Invalid_argument] like {!access} for a node the machine lacks. *)

val l3_occupancy : t -> socket:int -> int
(** Resident L3 lines on a socket (for tests). *)

val l3_resident : t -> socket:int -> addr:int -> bool
val private_resident : t -> core:int -> addr:int -> bool

val directory_marks : t -> core:int -> addr:int -> bool
(** True when the core's socket L3 holds [addr]'s line and its presence-bit
    directory lists [core] as a (possible) holder. The directory is
    conservative: a line resident in a private cache must be marked, the
    converse need not hold. For inclusion-invariant tests. *)

val memctrl_transactions : t -> node:int -> int
