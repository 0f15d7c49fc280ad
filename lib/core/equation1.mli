(** Equation 1 of the paper: the performance drop implied by a hit-to-miss
    conversion rate.

    A flow achieving [h] cache hits/sec solo, suffering conversion rate
    [kappa], with [delta] extra seconds per converted reference, drops by
    1 / (1 + 1/(delta * kappa * h)). With kappa = 1 this bounds the
    worst-case drop as a function of solo hits/sec only (Figure 6). *)

val drop : delta:float -> kappa:float -> hits_per_sec:float -> float
(** All arguments non-negative; [kappa] in [0,1]. *)

val max_drop : delta:float -> hits_per_sec:float -> float
(** [drop] with kappa = 1. *)

val paper_delta : float
(** 43.75ns, the paper's quoted hit-vs-miss latency difference. *)
