(** Shared helpers for the per-figure experiment drivers: the realistic
    kinds, their solo baselines, and the Figure 2 pair matrix. Every
    co-run here goes through {!Ppp_core.Sensitivity}'s placement. *)

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
  Ppp_apps.App.kind ->
  Ppp_hw.Hierarchy.t ->
  heaps:Ppp_simmem.Heap.t array ->
  rng:Ppp_util.Rng.t ->
  Ppp_hw.Engine.flow list
(** The [Both] co-runners of {!Ppp_core.Sensitivity.competitors} as flows,
    for a {!Ppp_core.Runner.run_with} builder whose own target sits on core
    0 (classifier, flowcache, traffic's victim):
    {!Ppp_core.Runner.spec_flows} over them, each from its own
    [Rng.split rng], in core order. *)

val pair_matrix :
  params:Ppp_core.Runner.params ->
  solos:(Ppp_apps.App.kind * Ppp_hw.Engine.result) list ->
  Ppp_apps.App.kind list ->
  pair_result list
(** For every ordered pair (X, Y): the {!Ppp_core.Sensitivity.corun} of X
    against [Both] co-runners of type Y, all on one socket with local data
    — the Figure 2 scenarios. Cells run under {!Ppp_core.Parallel.map},
    each seeded from its (target, competitor) label. *)

val find_pair :
  pair_result list -> target:Ppp_apps.App.kind -> competitor:Ppp_apps.App.kind ->
  pair_result

val avg_drop_per_target :
  pair_result list -> (Ppp_apps.App.kind * float) list
