(** Section 2.2: parallel vs pipelined parallelization.

    Two experiments: (1) an IP flow run whole on one core (the parallel
    approach) vs split across two cores with a handoff queue (the pipeline
    approach) — the pipeline incurs extra coherence misses per packet and
    delivers less throughput per core; (2) the paper's contrived workload
    (hundreds of random accesses to a structure about twice the L3) where
    splitting the structure across the two sockets' caches lets the
    pipeline win. *)

type side = {
  label : string;
  throughput_pps : float;
  per_core_pps : float;  (** throughput divided by cores used *)
  l3_refs_per_packet : float;
      (** L2 misses per packet — what the paper's Oprofile "cache misses"
          count; handoffs surface here as coherence transfers *)
  l3_misses_per_packet : float;
  cores : int;
}

type data = {
  ip_parallel : side;
  ip_pipeline : side;
  extra_refs_per_packet : float;
      (** pipeline - parallel L3 refs/packet for the IP workload (the
          paper's 10-15 extra misses/packet) *)
  syn_parallel : side;
  syn_pipeline : side;
}

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
