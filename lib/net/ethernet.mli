(** Ethernet II framing (14-byte header at offset 0). *)

val header_bytes : int

val set_header : Packet.t -> src:string -> dst:string -> ethertype:int -> unit
(** [src]/[dst] are 6-byte MAC strings. *)

val ethertype : Packet.t -> int
val ethertype_ipv4 : int
val mac_of_string : string -> string
(** Parses "aa:bb:cc:dd:ee:ff" into a 6-byte MAC. Each octet is one or two
    hex digits; anything else raises [Invalid_argument]. *)

val mac_to_string : string -> string
