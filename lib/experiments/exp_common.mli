(** Shared helpers for the per-figure experiment drivers. *)

val realistic : Ppp_apps.App.kind list

type pair_result = {
  target : Ppp_apps.App.kind;
  competitor : Ppp_apps.App.kind;
  drop : float;
  competing_refs_per_sec : float;
  target_result : Ppp_hw.Engine.result;
}

val solo_results :
  params:Ppp_core.Runner.params ->
  Ppp_apps.App.kind list ->
  (Ppp_apps.App.kind * Ppp_hw.Engine.result) list
(** Solo baselines, one parallel cell per kind. *)

val co_runners :
  params:Ppp_core.Runner.params ->
  heap:Ppp_simmem.Heap.t ->
  rng:Ppp_util.Rng.t ->
  Ppp_apps.App.kind ->
  Ppp_hw.Engine.flow list
(** {!Ppp_core.Sensitivity.default_competitors} flows of one kind on cores
    1..n, for a {!Ppp_core.Runner.run_with} builder whose target sits on
    core 0. Each is built on [heap] from its own [Rng.split rng], in core
    order. *)

val pair_matrix :
  params:Ppp_core.Runner.params ->
  solos:(Ppp_apps.App.kind * Ppp_hw.Engine.result) list ->
  Ppp_apps.App.kind list ->
  pair_result list
(** For every ordered pair (X, Y): X co-runs with
    {!Ppp_core.Sensitivity.default_competitors} flows of type Y, all on one
    socket with local data — the Figure 2 scenarios. Cells run under
    {!Ppp_core.Parallel.map}, each seeded from its (target, competitor)
    label. *)

val find_pair :
  pair_result list -> target:Ppp_apps.App.kind -> competitor:Ppp_apps.App.kind ->
  pair_result

val avg_drop_per_target :
  pair_result list -> (Ppp_apps.App.kind * float) list

val pct : float -> string
(** "12.34" for 0.1234. *)

val millions : float -> string
