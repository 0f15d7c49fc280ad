(** Click elements for full IP forwarding (the paper's baseline IP flow:
    header check, longest-prefix-match lookup, TTL decrement and checksum
    update). *)

val fn_check_ip_header : Ppp_hw.Fn.t
val fn_radix_ip_lookup : Ppp_hw.Fn.t

val check_ip_header : unit -> Ppp_click.Element.t
(** Reads the IP header from the packet buffer and drops packets with a bad
    version, length, TTL or checksum. *)

val radix_ip_lookup :
  hop_table:int Ppp_simmem.Iarray.t -> Radix_trie.t -> Ppp_click.Element.t
(** LPM lookup of the destination; the matched route's entry in the
    next-hop information table (gateway/egress-port records, as in Click's
    RadixIPLookup) is then read. Stores the port in the destination MAC's
    first byte and drops packets with no route (hop 0). *)

val dec_ip_ttl : unit -> Ppp_click.Element.t
(** Decrements TTL with an incremental checksum update; drops expired
    packets. *)

val forwarding_chain :
  hop_table:int Ppp_simmem.Iarray.t -> Radix_trie.t -> Ppp_click.Element.t list
(** [check_ip_header; radix_ip_lookup; dec_ip_ttl] — full IP forwarding. *)
