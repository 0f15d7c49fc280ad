(** Sequential-search packet filter (the paper's FW add-on, Section 2.1).

    Each packet is checked against every rule in order until one matches;
    matching packets are dropped. The paper deliberately uses linear search
    over a rule list small enough to stay cache-resident, making FW the
    CPU-bound, contention-insensitive flow type. Rules are 5-tuple masks
    with ranges on ports. *)

type rule = {
  src : int;
  src_mask : int;  (** prefix mask, e.g. 0xFFFFFF00 for /24 *)
  dst : int;
  dst_mask : int;
  sport_lo : int;
  sport_hi : int;
  dport_lo : int;
  dport_hi : int;
  proto : int;  (** 0 = any *)
}

val rule_any : rule
(** A rule matching everything (customize by record update). *)

type t

val create : heap:Ppp_simmem.Heap.t -> rule list -> t
(** Rules occupy 16 simulated bytes each, packed four to a cache line. *)

val matches : rule -> Ppp_net.Packet.t -> bool

val check :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> Ppp_net.Packet.t ->
  int option
(** Instrumented sequential scan; [Some i] is the index of the first
    matching rule ([None] = accept). Every rule read and the per-rule
    comparison compute are traced. *)
