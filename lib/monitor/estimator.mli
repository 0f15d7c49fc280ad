(** Streaming per-flow rate estimation from engine samples.

    One estimator per monitored flow turns the raw per-slice counter deltas
    of {!Ppp_hw.Engine.probe} into rates (per simulated second) plus
    exponentially-weighted moving averages — the simulator's version of an
    online profiler reading hardware counters at a fixed period. Everything
    here is a pure function of the sample stream, which the engine delivers
    in deterministic simulated-time order, so estimates are byte-stable
    across job counts. *)

type rates = {
  t_start : int;  (** slice start, simulated cycles *)
  t_end : int;  (** slice end *)
  packets : int;  (** packets completed inside the slice *)
  pps : float;  (** instantaneous packets per simulated second *)
  l3_refs_per_sec : float;
  l3_hits_per_sec : float;
  mem_refs_per_sec : float;
      (** all loads + stores issued; instantaneous only (monitor.csv) *)
  p50_latency : int;  (** median per-packet latency of the slice, cycles *)
  p99_latency : int;
  ewma_pps : float;  (** smoothed rates as of this slice (inclusive) *)
  ewma_l3_refs_per_sec : float;
}
(** One slice interpreted as rates. The [ewma_*] fields are snapshots of the
    estimator's smoothed state immediately after absorbing this slice. *)

type t

val create : alpha:float -> freq_hz:float -> t
(** [alpha] in (0, 1] is the EWMA weight of the newest slice (1.0 disables
    smoothing); [freq_hz] converts cycle counts to per-second rates. The
    first slice seeds the EWMA at its own value (warm start). *)

val push : t -> Ppp_hw.Engine.sample -> rates
(** Absorb one slice and return it interpreted as rates. Slices of one flow
    must be pushed in time order (the engine's probe guarantees this). *)
