(** Packet construction helpers for the workload generators. *)

val fill_ipv4_udp :
  Ppp_net.Packet.t ->
  src:int -> dst:int -> sport:int -> dport:int -> wire_len:int -> unit
(** Builds a complete Ethernet/IPv4/UDP frame of [wire_len] bytes (>= 60)
    with a valid IP checksum; the payload bytes are left as-is. *)

val fill_flow : Ppp_net.Packet.t -> flow:int -> wire_len:int -> unit
(** Builds the frame of an abstract flow id: a stable synthetic 5-tuple
    derived from [flow] by hashing, identical for every source model.
    Allocation-free. *)

val random_payload :
  Ppp_util.Rng.t -> Ppp_net.Packet.t -> pos:int -> len:int -> unit

val seeded_payload : seed:int -> Ppp_net.Packet.t -> pos:int -> len:int -> unit
(** Deterministic payload derived from [seed] — two packets with the same
    seed carry identical bytes (redundant traffic for RE). *)
