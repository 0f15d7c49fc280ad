(** The paper's prediction method (Section 4).

    Offline, per flow type: (1) measure the solo L3 refs/sec of every
    possible competitor; (2) measure the target's drop against a SYN ramp
    and keep drop(competing refs/sec) as a curve. Online, to predict the
    drop of target T co-running with competitors C1..Cn: evaluate T's curve
    at the sum of the Ci's *solo* refs/sec.

    The "perfect knowledge" variant evaluates the curve at the competitors'
    refs/sec measured during the actual co-run, isolating the error
    introduced by assuming competitors run at their solo rate. *)

type t

val build :
  ?params:Runner.params ->
  ?levels:Ppp_apps.App.syn_params list ->
  targets:Ppp_apps.App.kind list ->
  unit ->
  t
(** Profiles every kind in [targets]: one solo run ({!Runner.solo}), kept
    whole, and a SYN sensitivity curve in the [Both] configuration measured
    against that same run. *)

val solo : t -> Ppp_apps.App.kind -> Ppp_hw.Engine.result
(** The target's solo run, the baseline of its curve: callers that need a
    solo baseline of a profiled kind read it here instead of simulating it
    again. *)

val solo_refs_per_sec : t -> Ppp_apps.App.kind -> float
val solo_throughput : t -> Ppp_apps.App.kind -> float

val predict_drop :
  t -> target:Ppp_apps.App.kind -> competitors:Ppp_apps.App.kind list -> float
(** The paper's 3-step prediction. *)

val predict_drop_at : t -> target:Ppp_apps.App.kind -> refs_per_sec:float -> float
(** Curve evaluation at a known competing rate (perfect knowledge). *)

val predict_throughput :
  t -> target:Ppp_apps.App.kind -> competitors:Ppp_apps.App.kind list -> float

val predict_mix :
  t -> Ppp_apps.App.kind list -> (Ppp_apps.App.kind * float * float) list
(** For a whole one-socket mix: each flow's (kind, predicted drop, predicted
    throughput), treating the other flows in the list as its competitors. *)
