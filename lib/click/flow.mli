(** A packet-processing flow: the unit the paper schedules onto a core.

    A flow owns an RX descriptor ring with NIC buffers, a chain of elements,
    a TX ring, and a buffer pool with skb recycling — all placed in one NUMA
    node's heap (Section 2.2's local-data policy). Its {!source} yields one
    trace per packet: NIC DMA, FromDevice descriptor/header reads, the
    elements' operations, ToDevice writes, and skb_recycle bookkeeping.

    Input packets come from a {!Ppp_traffic.Source.t}. The flow observes
    each packet's flow/sequence metadata through a {!Ppp_traffic.Reorder}
    detector, so per-flow results gain a reorder metric ({!reorders}) —
    nonzero exactly when the source chain includes a reordering stage such
    as Flow-Director steering. A source that reports [Exhausted] (a finite
    capture) turns further cycles into idle polls rather than raising.

    The input queue is otherwise assumed always backlogged (the paper
    drives each flow at saturation to measure maximum throughput). *)

type t

val create :
  heap:Ppp_simmem.Heap.t ->
  label:string ->
  source:Ppp_traffic.Source.t ->
  elements:Element.t list ->
  ?rx_slots:int ->
  unit ->
  t
(** [rx_slots] (default 64) RX buffers of 2 KB. *)

val source : t -> Ppp_hw.Engine.source
val label : t -> string
val forwarded : t -> int
val dropped : t -> int

val packet_source : t -> Ppp_traffic.Source.t
(** The traffic source feeding this flow. *)

val reorders : t -> int
(** Packets that arrived out of order within their flow (sequence below
    the flow's high-water mark), as observed at the receive path. *)

val fn_from_device : Ppp_hw.Fn.t
(** Function tags for the driver stages (shared by {!Staged} pipelines), so
    counters and profiles attribute RX/TX/recycle work alongside the
    element chain. *)

val fn_to_device : Ppp_hw.Fn.t
val fn_skb_recycle : Ppp_hw.Fn.t

(** {2 The driver steps, shared with {!Staged}} *)

type nic
(** A NIC port on one heap: packet buffers, the skb free list and the RX
    descriptor ring, plus a flow's TX descriptor ring. *)

val nic : Ppp_simmem.Heap.t -> rx_slots:int -> nic
(** A port of [rx_slots] 2 KB buffers without a TX ring, so {!transmit}
    rewrites the MAC only. *)

val next_slot : nic -> int
(** The buffer slot the next {!receive} fills. *)

val receive : nic -> Ctx.t -> Ppp_net.Packet.t -> int
(** NIC DMA of a filled packet into the {!next_slot} buffer, then the
    FromDevice descriptor and header reads. Returns the slot. *)

val transmit : nic -> Ctx.t -> Ppp_net.Packet.t -> int -> unit
(** ToDevice for the packet in buffer [slot]: the TX descriptor, if the
    port has a ring, and the MAC rewrite. *)

val recycle : nic -> Ctx.t -> int -> unit
(** skb_recycle: returns buffer [slot] to the free list. *)
