(** Packet-processing elements, in the style of the Click modular router.

    An element transforms a packet in place and issues its compute and memory
    operations through the {!Ctx}. Elements are instantiated with their state
    captured in the [process] closure, so one element instance belongs to one
    flow (the paper replicates per-flow state across cores/NUMA domains —
    Section 2.2). *)

type verdict = Forward | Drop

type t = Ctx.t -> Ppp_net.Packet.t -> verdict
(** An element is its processing function. Its traced operations carry the
    function tags ({!Ppp_hw.Fn}) its class registered, so counters and
    profiles attribute its work by tag; instances of one class share their
    tags across flows, the way the paper's per-function Oprofile breakdown
    aggregates. *)

val process_all : t list -> Ctx.t -> Ppp_net.Packet.t -> verdict
(** Push the packet through the chain; stops at the first [Drop]. *)
