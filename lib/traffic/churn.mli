(** Flow arrival/departure over a live-flow table.

    [live] slots hold the concurrently-live flows (the table scales to
    millions of slots — storage is two int arrays). Each packet comes from
    a uniform random slot; with probability 1/[churn_every] per packet a
    random slot first departs and a fresh, never-before-seen flow id takes
    its place. Because ids never repeat, every arrival carries a new
    synthetic 5-tuple — the workload that forces [Flow_table] to evict for
    real rather than settle into a fixed working set. *)

type t

val create : live:int -> churn_every:int -> t

val source : t -> rng:Ppp_util.Rng.t -> Source.t
(** The churning source; allocation-free fills of 64-byte {!Gen.fill_flow}
    packets, per-flow sequence numbers, never exhausts. *)
