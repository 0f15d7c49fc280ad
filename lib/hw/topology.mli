(** Machine shape: sockets, cores, NUMA nodes and the address map.

    One NUMA node per socket (as on the paper's dual-X5660 platform). The
    simulated physical address space is partitioned into per-node windows so
    an address's home node is recoverable from its high bits. *)

type t = { sockets : int; cores_per_socket : int }

val create : sockets:int -> cores_per_socket:int -> t
val cores : t -> int
val socket_of_core : t -> int -> int

val local_index : t -> int -> int
(** Index of a core within its socket, in [0, cores_per_socket). *)

val node_window_bits : int
(** Each node owns a [2^node_window_bits]-byte address window. *)

val node_base : int -> int
(** Base address of a node's window. *)

val node_of_addr : int -> int
(** Home NUMA node of an address. *)
