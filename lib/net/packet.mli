(** Packets: real bytes plus simulation metadata.

    A packet's wire format is Ethernet / IPv4 / UDP-or-TCP / payload, built
    and parsed by {!Ethernet}, {!Ipv4} and {!Transport}. [buf_addr] is the
    simulated address of the NIC buffer currently holding the packet
    (assigned by the buffer pool on receive); [0] when unplaced. *)

type t = {
  data : Bytes.t;
  mutable len : int;  (** wire length in bytes *)
  mutable buf_addr : int;
}

val create : ?cap:int -> int -> t
(** [create ?cap len] makes a zeroed packet of wire length [len]; capacity
    defaults to 1514. *)

val copy : t -> t
val capacity : t -> int

val resize : t -> int -> unit
(** Change wire length (within capacity). *)

val get8 : t -> int -> int
val set8 : t -> int -> int -> unit
val get16 : t -> int -> int
(** Big-endian 16-bit read. *)

val set16 : t -> int -> int -> unit
val get32 : t -> int -> int
(** Big-endian 32-bit read (non-negative int). *)

val set32 : t -> int -> int -> unit
val blit_string : string -> t -> int -> unit
val sub_string : t -> pos:int -> len:int -> string
