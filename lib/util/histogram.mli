(** Fixed-memory log-bucketed histogram for latency-style distributions.

    Values are bucketed geometrically, so recording is O(1) and percentile
    queries are approximate — the standard trade-off for per-packet latency
    tracking. The error bound is one bucket: values below 64 are exact, and
    beyond that each power of two splits into 16 sub-buckets, so an
    interior percentile overstates the true sample by at most its bucket's
    width (< 1/16 of the value, ~6.7% relative at worst, ~4.6% on average).
    The exact min and max samples are tracked on the side, so the
    distribution endpoints ([percentile 0.] / [percentile 100.]) carry no
    bucketing error at all. *)

type t

val create : unit -> t
(** Covers values in [0, 2^62). *)

val record : t -> int -> unit
(** Record a non-negative sample. *)

val count : t -> int
val total : t -> int
(** Sum of all recorded samples. *)

val mean : t -> float
(** Exact mean of the recorded samples ([total / count]); [0.0] — not
    NaN — when nothing has been recorded, so downstream rate arithmetic
    and JSON export never see a non-finite value. *)

val percentile : t -> float -> int
(** [percentile t p] for [p] in [0,100]: an upper bound of the bucket
    containing the p-th percentile sample, clamped to the exact recorded
    extremes — so [percentile t 0.] is the exact smallest sample,
    [percentile t 100.] the exact largest, and interior results are within
    one bucket (never above the largest sample). Monotone in [p]. 0 when
    empty. *)

val min_value : t -> int
(** Exact smallest recorded sample (0 when empty). *)

val exact_max : t -> int
(** Exact largest recorded sample (0 when empty). *)

val max_value : t -> int
(** Upper bound of the highest non-empty bucket (0 when empty) — the
    pre-existing bucketed readout, kept for callers that report bucket
    bounds; use {!exact_max} or [percentile t 100.] for the exact
    endpoint. *)
