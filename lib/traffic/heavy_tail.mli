(** Heavy-tailed flow-size sampler: bounded Pareto elephants and mice.

    [create] draws one realized size (in packets) per flow from a bounded
    Pareto distribution on [[1, max_pkts]] with tail index [alpha]
    (alpha near 1 = extreme skew, a few elephant flows carry almost all
    bytes; alpha near 2 = milder skew). Mass accounting is exact: the
    realized sizes form an integer prefix-sum, [sample] draws flows with
    probability proportional to their realized size, and {!top_mass}
    reports the exact fraction of total packets held by the k largest
    flows. After [create], the hot path is integer-only and
    allocation-free. *)

type t

val create :
  seed:int ->
  flows:int ->
  alpha:float ->
  ?max_pkts:int ->
  unit ->
  t
(** Realizes the per-flow sizes. [max_pkts] defaults to 100_000. Equal
    seeds yield equal size vectors. *)

val total_pkts : t -> int
(** Exact total mass (sum of realized sizes), in packets. *)

val size : t -> int -> int
(** Realized size of flow [i], in packets. *)

val sample : t -> Ppp_util.Rng.t -> int
(** Draws a flow index with probability proportional to its realized size.
    One bounded integer draw + binary search; allocation-free. *)

val top_mass : t -> k:int -> float
(** Exact fraction of total mass held by the [k] largest flows. *)

val analytic_top_mass :
  flows:int ->
  alpha:float ->
  ?max_pkts:int ->
  k:int ->
  unit ->
  float
(** Expected top-[k] mass fraction of the sizes {!create} realizes (the
    floored bounded-Pareto quantile), summed exactly over integer sizes —
    the reference value the qcheck property compares {!top_mass}
    against. *)

val source : t -> rng:Ppp_util.Rng.t -> Source.t
(** A {!Source.t} emitting a size-weighted random flow per fill, with
    per-flow sequence numbers: 64-byte {!Gen.fill_flow} packets. Never
    exhausts. *)
