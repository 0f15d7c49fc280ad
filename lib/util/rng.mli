(** Deterministic pseudo-random number generation.

    All simulator randomness flows through explicitly seeded generators so
    that every experiment is exactly reproducible. The implementation is
    splitmix64 (for seeding and streams) layered under xoshiro256**. *)

type t
(** A self-contained PRNG state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each flow / generator its own stream. *)

val derive : seed:int -> string -> int
(** [derive ~seed label] deterministically maps a root seed and a stream
    label to a fresh 62-bit seed. A pure function — unlike {!split} it
    involves no shared state, so independent cells of a parallel experiment
    can derive their streams in any order and obtain identical values.
    Distinct labels (or distinct seeds) yield independent streams. *)

val bits64 : t -> int64
(** Next 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val byte : t -> int
(** Uniform in [\[0, 255\]]. *)

