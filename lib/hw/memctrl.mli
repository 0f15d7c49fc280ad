(** Per-NUMA-node memory controller with a simple occupancy/queueing model.

    Each 64B DRAM transaction occupies the controller for a fixed service
    time; a request arriving while the controller is busy waits. This is the
    mechanism behind the paper's Figure 4(b): co-runners on the other socket
    whose data lives in the target's local memory saturate the target's
    controller and add queueing delay to its misses. *)

type t

val create : service_cycles:int -> t

val demand_access : t -> now:int -> int
(** [demand_access t ~now] enqueues a demand (load) transaction arriving at
    cycle [now]; returns the queueing delay (cycles spent waiting before
    service starts). The caller adds its own DRAM latency on top. *)

val writeback : t -> now:int -> unit
(** A write-back occupies the controller but the issuing core does not wait
    (posted write). *)

val transactions : t -> int
