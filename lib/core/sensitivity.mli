(** Sensitivity curves: a flow's performance drop as a function of the
    competing L3 refs/sec, measured against SYN synthetic competitors
    (Figures 4 and 5 of the paper).

    This module is the one home of the Figure 3 co-run that every drop in
    the paper is: a target on core 0 with its data on node 0, beside
    {!default_competitors} co-runners of one kind whose cores and data are
    placed by the contended resource:
    - [Cache_only]: competitors co-located with the target, their data on the
      remote node (they share the L3 but use the other memory controller);
    - [Memctrl_only]: competitors on the other socket, their data on the
      target's node (they share the controller but not the L3);
    - [Both]: competitors co-located with local data.

    {!competitors} is the placement, {!corun} the measurement; fig2, fig5,
    fig7, fig8, latency and the ablation read their drops through them. *)

type resource = Cache_only | Memctrl_only | Both

val resource_name : resource -> string

val default_competitors : Ppp_hw.Machine.config -> int
(** The paper's five co-runners, clamped to what one socket holds beside
    the target: [min 5 (cores_per_socket - 1)]. *)

val competitors :
  config:Ppp_hw.Machine.config -> resource -> Ppp_apps.App.kind ->
  Runner.spec list
(** The co-runners of a [resource] co-run: {!default_competitors} specs of
    the kind, in core order — cores 1.. on the target's socket for
    [Cache_only] (data on node 1) and [Both] (data on node 0), cores
    [cores_per_socket].. on the other socket for [Memctrl_only] (data on
    node 0). *)

val corun :
  params:Runner.params ->
  resource ->
  competitor:Ppp_apps.App.kind ->
  Ppp_apps.App.kind ->
  Ppp_hw.Engine.result * float
(** [corun ~params resource ~competitor target] runs [target] on core 0,
    data on node 0, against [competitors ~config:params.config resource
    competitor] through {!Runner.run} under [params] as given (the caller
    picks the cell's seed and label). Returns the target's result and
    {!Runner.competing_refs_per_sec}: the co-runners' measured L3
    refs/sec. *)

val default_syn_levels : Ppp_apps.App.syn_params list
(** A ramp of SYN aggressiveness levels spanning idle to SYN_MAX. *)

type point = {
  competing_refs_per_sec : float;  (** measured during the co-run *)
  drop : float;
  target_hits_per_sec : float;  (** of the target, during the co-run *)
}

type curve = {
  target : Ppp_apps.App.kind;
  resource : resource;
  solo_pps : float;
  points : point list;  (** sorted by competing refs/sec; includes (0,0) *)
}

val measure :
  ?params:Runner.params ->
  ?levels:Ppp_apps.App.syn_params list ->
  resource:resource ->
  solo:Ppp_hw.Engine.result ->
  Ppp_apps.App.kind ->
  curve
(** The target's drop against each SYN level, one {!corun} per level,
    measured against [solo], the target's {!Runner.solo} run under the same
    [params]: the caller simulates that baseline once and shares it (fig4
    and fig5 across their curves and pairs, {!Predictor.build} with the run
    it keeps). *)

val to_series : curve -> Ppp_util.Series.t
(** Piecewise-linear drop(competing refs/sec) — the predictor's input. *)
