(** Figure 8: prediction error for every (target, 5 x competitor) scenario —
    the paper's method and the perfect-knowledge variant, plus per-target
    average absolute errors. *)

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
