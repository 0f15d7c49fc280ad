(** Figure 5: realistic co-runners fall on the SYN sensitivity curve — the
    observation enabling prediction. For each target: its SYN curve (both
    resources contended) and the five realistic-competitor points, with the
    deviation of each point from the curve. *)

type point_check = {
  target : Ppp_apps.App.kind;
  competitor : Ppp_apps.App.kind;
  competing_refs_per_sec : float;
  measured_drop : float;
  curve_drop : float;  (** SYN curve evaluated at the same refs/sec *)
}

type data = {
  curves : (Ppp_apps.App.kind * Ppp_core.Sensitivity.curve) list;
  checks : point_check list;
}

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t

val max_deviation : data -> float
(** Largest |measured - curve| across all realistic points (the paper's
    claim is that this is small). *)
