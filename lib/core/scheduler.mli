(** Contention-aware scheduling study (Section 5).

    Given a combination of flows equal to the machine's core count, evaluate
    every distinct assignment of flows to sockets (flow-to-core placement
    within a socket is symmetric) and report the per-flow and average
    contention-induced drops under each, exposing the best/worst placement
    gap of Figure 10. *)

type combo = (Ppp_apps.App.kind * int) list
(** Multiset of flows, e.g. [[(MON, 6); (FW, 6)]]. Counts must sum to the
    machine's total cores. *)

val combo_name : combo -> string

val splits : config:Ppp_hw.Machine.config -> combo -> Ppp_apps.App.kind list list list
(** All distinct placements, each a per-socket list of flow kinds, deduped
    under socket exchange. *)

type evaluation = {
  per_socket : Ppp_apps.App.kind list list;
  avg_drop : float;  (** mean drop across all flows *)
  per_flow : (Ppp_apps.App.kind * float) list;  (** in placement order *)
}

val evaluate :
  ?params:Runner.params ->
  ?solo:(Ppp_apps.App.kind * Ppp_hw.Engine.result) list ->
  combo ->
  evaluation list
(** Runs every placement. [solo] lets callers share solo baselines across
    combos (pairs of kind and {!Runner.solo} result); missing kinds are
    measured. Raises [Invalid_argument] through {!Runner.drop} when a solo
    baseline completed no packet. *)

val best : evaluation list -> evaluation
(** Placement minimizing average drop. *)

val worst : evaluation list -> evaluation
val gain : evaluation list -> float
(** worst.avg_drop - best.avg_drop: the overall-performance headroom
    contention-aware scheduling could recover. *)
