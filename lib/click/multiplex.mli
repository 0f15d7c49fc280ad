(** Running several flows on one core (Section 6 of the paper).

    The paper's prediction method assumes one flow per core; when a core
    multiplexes several flows they additionally contend for the private
    L1/L2 caches, which L3-based profiling cannot see. This combinator
    interleaves flow sources packet-by-packet on a single engine core so
    that scenario can be studied. *)

val round_robin : Ppp_hw.Engine.source list -> Ppp_hw.Engine.source
(** Strict round-robin packet interleaving (the Click task scheduler's
    default). Raises [Invalid_argument] on an empty list. *)
