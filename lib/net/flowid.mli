(** Transport 5-tuples, used as NetFlow keys. *)

type t = { src : int; dst : int; sport : int; dport : int; proto : int }

val of_packet : Packet.t -> t
val hash : t -> int
(** FNV-based stable hash (what the NetFlow element indexes its table by). *)

val hash_of_packet : Packet.t -> int
(** [hash_of_packet p = hash (of_packet p)], allocation-free — for
    per-packet fast paths. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
