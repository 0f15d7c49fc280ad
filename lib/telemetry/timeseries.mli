(** Deterministic per-core counter time series.

    One series is the sampled measurement window of one core inside one
    experiment cell: contiguous time slices keyed by *simulated* cycles,
    each carrying the counter delta, packet count and latency quantiles of
    that slice. Everything here is a pure function of the simulation, so a
    series is byte-identical across job counts and suitable for golden
    tests; wall-clock never enters this type. *)

type slice = {
  t_start : int;  (** slice start, simulated cycles *)
  t_end : int;  (** slice end; consecutive slices are contiguous *)
  packets : int;
  instructions : int;
  l1_hits : int;
  l2_hits : int;
  l3_hits : int;
  l3_misses : int;
  reads : int;
  writes : int;
  lat_p50 : int;  (** median packet latency inside the slice, cycles *)
  lat_p99 : int;
}

type t = {
  experiment : string;  (** registry id, or "" outside an experiment *)
  cell : string;  (** experiment cell label, or "" for unlabeled runs *)
  core : int;
  flow : string;  (** flow label, e.g. "MON" *)
  freq_hz : float;  (** converts slice cycles to seconds for rates *)
  slices : slice list;  (** in simulated-time order *)
}

val l3_refs : slice -> int
val cycles : slice -> int

val rate : t -> slice -> int -> float
(** [rate t s n] is [n] per simulated second of slice [s]. *)

val pps : t -> slice -> float

val sum_slices : t -> slice
(** The whole-window totals of a series: the telescoped sum of its slices
    (packet and counter fields add; [t_start]/[t_end] span the window;
    latency quantiles are meaningless on the sum and set to 0). *)

val compare : t -> t -> int
(** Total order by (experiment, cell, core, flow, slices) — the export
    order, independent of collection order. *)
