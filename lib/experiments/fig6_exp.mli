(** Figure 6: Equation-1 worst-case drop vs solo cache hits/sec for several
    values of delta, with each realistic application placed on the curve. *)

type data = {
  deltas : float list;
  curve_samples : (float * float list) list;  (** hits/sec, drop per delta *)
  app_points : (Ppp_apps.App.kind * float * float) list;
      (** kind, solo hits/sec, worst-case drop at the platform delta *)
}

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
