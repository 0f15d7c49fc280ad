(** Per-packet processing context handed to every element.

    Bundles the trace builder collecting this packet's operations with the
    flow's private RNG (for elements with randomized behaviour). *)

type t = {
  builder : Ppp_hw.Trace.Builder.t;
  rng : Ppp_util.Rng.t;
}

val create : rng:Ppp_util.Rng.t -> t

val compute : t -> fn:Ppp_hw.Fn.t -> int -> unit
(** Charge [n] instructions of pure compute to [fn]. *)

val read : t -> fn:Ppp_hw.Fn.t -> int -> unit
val write : t -> fn:Ppp_hw.Fn.t -> int -> unit

val touch_packet :
  t -> Ppp_net.Packet.t -> fn:Ppp_hw.Fn.t -> write:bool -> pos:int -> len:int -> unit
(** Record references to the packet's NIC buffer covering bytes
    [pos, pos+len): one per cache line. No-op when the packet has no
    simulated placement ([buf_addr = 0]). *)
