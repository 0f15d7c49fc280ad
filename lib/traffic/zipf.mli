(** Zipf-distributed sampling over [0, n), for realistic traffic skew (flow
    and route popularity concentrate on a hot subset, which is what makes
    packet-processing working sets cacheable). *)

type t

val create : n:int -> s:float -> t
(** Rank-frequency exponent [s] (0 = uniform; ~1 = classic Zipf). *)

val sample : t -> Ppp_util.Rng.t -> int
val expected_mass : t -> int -> float
(** Probability mass of the top-[k] ranks. *)
