(** Figure 4: drop vs competing refs/sec under the three Figure 3
    configurations (cache-only, memory-controller-only, both). *)

type data = (Ppp_core.Sensitivity.resource * Ppp_core.Sensitivity.curve list) list

val measure :
  ?params:Ppp_core.Runner.params ->
  ?levels:Ppp_apps.App.syn_params list ->
  ?targets:Ppp_apps.App.kind list ->
  unit ->
  data

val point_columns : Ppp_core.Sensitivity.point Output.col list
(** Shared with {!Fig5_exp}: a sensitivity curve's points as table
    columns. *)

val curve_json : Ppp_core.Sensitivity.curve -> Output.Json.t
(** Shared with {!Fig5_exp}: one sensitivity curve as JSON. *)

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
