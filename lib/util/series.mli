(** Sampled (x, y) series with piecewise-linear interpolation.

    The prediction method of Section 4 reads a flow's performance drop off a
    sensitivity curve sampled at discrete competing-refs/sec points; this
    module is that curve abstraction. *)

type t

val of_points : (float * float) list -> t
(** Builds a series from sample points; points are sorted by x. Duplicate x
    values keep the last y. Raises [Invalid_argument] if empty. *)

val points : t -> (float * float) array
(** The sorted sample points. *)

val eval : t -> float -> float
(** [eval t x] interpolates linearly between the two samples bracketing [x];
    clamps to the first/last y outside the sampled range. *)
