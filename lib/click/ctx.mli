(** Per-packet processing context handed to every element.

    Holds the trace builder collecting this packet's operations. An element
    with randomized behaviour owns its generator, split from the flow's
    stream when the element is built. *)

type t = { builder : Ppp_hw.Trace.Builder.t }

val create : unit -> t

val compute : t -> fn:Ppp_hw.Fn.t -> int -> unit
(** Charge [n] instructions of pure compute to [fn]. *)

val touch_packet :
  t -> Ppp_net.Packet.t -> fn:Ppp_hw.Fn.t -> write:bool -> pos:int -> len:int -> unit
(** Record references to the packet's NIC buffer covering bytes
    [pos, pos+len): one per cache line. No-op when the packet has no
    simulated placement ([buf_addr = 0]). *)
