(** Click elements for the paper's add-on applications: NetFlow statistics
    (MON), sequential firewall (FW), redundancy elimination (RE), AES-128
    VPN encryption (VPN), and the SYN synthetic profiling application. *)

val fn_flow_statistics : Ppp_hw.Fn.t
val fn_firewall : Ppp_hw.Fn.t

val flow_statistics : Netflow.t -> Ppp_click.Element.t
(** NetFlow accounting; the element keeps its own packet counter as the
    timestamp clock. *)

val firewall : Firewall.t -> Ppp_click.Element.t
(** Drops packets matching any rule. *)

val re_encode : Re.t -> Ppp_click.Element.t
(** Encodes the payload in place (the packet shrinks when redundant
    content is found). *)

val vpn_encrypt : heap:Ppp_simmem.Heap.t -> key:string -> Ppp_click.Element.t
(** AES-128-CTR encryption of the payload. The per-block T-table/S-box work
    is charged as compute plus a few table-line touches (the tables are
    L1-resident and act as compute for contention purposes). *)

(** The SYN synthetic application (Section 2.1): a configurable number of
    counter increments plus random reads into an L3-sized buffer. *)
module Syn : sig
  type t

  val create :
    heap:Ppp_simmem.Heap.t ->
    rng:Ppp_util.Rng.t ->
    buffer_bytes:int ->
    reads_per_packet:int ->
    instrs_per_packet:int ->
    t

  val element : t -> Ppp_click.Element.t
end
