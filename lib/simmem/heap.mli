(** Per-NUMA-node simulated heap.

    Applications allocate their data structures from a node's heap; the
    returned addresses live in that node's physical window, so the hardware
    model routes misses to the right memory controller. This is how the
    paper's NUMA placement policy (Section 2.2) and the Figure 3
    local/remote-data configurations are expressed. *)

type t

val create : node:int -> t

val alloc : t -> bytes:int -> int
(** [alloc t ~bytes] reserves a region and returns its base address,
    cache-line (64B) aligned. Raises [Invalid_argument] for non-positive
    sizes, [Failure] if the node window is exhausted. *)

val used : t -> int
(** Bytes allocated so far. *)
