(** IPv4 header construction and parsing (20-byte header, no options),
    located after the Ethernet header. Addresses are ints in [0, 2^32). *)

val header_offset : int
(** Byte offset of the IP header within the packet (14). *)

val header_bytes : int
(** 20. *)

val addr_of_string : string -> int
(** "10.1.2.3" -> address. Raises [Invalid_argument] on malformed input. *)

val addr_to_string : int -> string

val set_header :
  Packet.t ->
  src:int -> dst:int -> proto:int -> ttl:int -> payload_len:int -> unit
(** Writes a full header (version/IHL, total length, TTL, protocol,
    addresses) and a valid checksum. [payload_len] counts bytes after the IP
    header. *)

val src : Packet.t -> int
val dst : Packet.t -> int
val ttl : Packet.t -> int
val proto : Packet.t -> int
val total_length : Packet.t -> int
val checksum_ok : Packet.t -> bool
val valid : Packet.t -> bool
(** Version, header length, total length and checksum all sane (what the
    paper's [check_ip_header] function verifies). *)

val decrement_ttl : Packet.t -> unit
(** TTL := TTL - 1 with an RFC 1624 incremental checksum update. *)

val set_dst : Packet.t -> int -> unit
(** Rewrite destination and incrementally fix the checksum. *)

val proto_udp : int
val proto_tcp : int
