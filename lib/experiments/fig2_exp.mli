(** Figure 2: contention-induced drop for every (target, N x competitor)
    pair of realistic flow types
    (N = {!Ppp_core.Sensitivity.default_competitors}), plus the per-target
    averages. *)

type data = {
  pairs : Exp_common.pair_result list;
  averages : (Ppp_apps.App.kind * float) list;
  n_competitors : int;
}

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
