(** Latency/cost model of the simulated platform.

    All latencies are in CPU cycles. The defaults approximate the paper's
    2.8GHz Westmere X5660: L1 4 cycles, L2 11, L3 38, and a DRAM access
    costing the L3 latency plus [delta] — the paper's extra time for a miss
    vs a hit — of 43.75ns (~122 cycles at 2.8GHz). *)

type t = {
  freq_hz : float;  (** core frequency; converts cycles to seconds *)
  l1_lat : int;  (** L1 hit latency *)
  l2_lat : int;  (** L2 hit latency *)
  l3_lat : int;  (** shared L3 hit latency *)
  dram_lat : int;  (** additional latency of a DRAM access past the L3 *)
  qpi_lat : int;  (** extra latency for a remote-socket memory access *)
  mc_service : int;  (** memory-controller occupancy per 64B transaction *)
  c2c_lat : int;  (** cache-to-cache transfer penalty (dirty line in a peer
                      private cache) *)
  upgrade_lat : int;  (** write-upgrade round trip to the directory *)
  compute_cpi : float;  (** cycles per instruction of pure compute *)
  mlp : int;
      (** memory-level parallelism: DRAM latency of back-to-back misses is
          divided by this factor, approximating an out-of-order core's miss
          overlap. 1 (default) = fully serialized in-order misses. *)
}

val default : t
(** Westmere-like parameters. *)

val delta_seconds : t -> float
(** The paper's delta: extra seconds a reference costs when it is a miss
    instead of an L3 hit (Section 3.3 uses 43.75ns). *)

val cycles_to_seconds : t -> int -> float

val compute_cycles : t -> int -> int
(** [compute_cycles t n] is the core-cycle cost of [n] instructions of pure
    compute: [n * compute_cpi], truncated, never below one cycle. The
    engine's replay loop charges every compute op through this. *)
