(** Sensitivity curves: a flow's performance drop as a function of the
    competing L3 refs/sec, measured against SYN synthetic competitors
    (Figures 4 and 5 of the paper).

    The three resource configurations of Figure 3 are selected by where the
    competitors' cores and data are placed:
    - [Cache_only]: competitors co-located with the target, their data on the
      remote node (they share the L3 but use the other memory controller);
    - [Memctrl_only]: competitors on the other socket, their data on the
      target's node (they share the controller but not the L3);
    - [Both]: competitors co-located with local data. *)

type resource = Cache_only | Memctrl_only | Both

val resource_name : resource -> string

val default_competitors : Ppp_hw.Machine.config -> int
(** The paper's five co-runners, clamped to what one socket holds beside
    the target: [min 5 (cores_per_socket - 1)]. *)

val placement :
  config:Ppp_hw.Machine.config ->
  resource ->
  n_competitors:int ->
  competitor:Ppp_apps.App.kind ->
  target:Ppp_apps.App.kind ->
  Runner.spec list
(** Target first (core 0, local data), competitors after. *)

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
  ?n_competitors:int ->
  resource:resource ->
  solo:Ppp_hw.Engine.result ->
  Ppp_apps.App.kind ->
  curve
(** The target's drop against each SYN level, measured against [solo], the
    target's {!Runner.solo} run under the same [params]: the caller
    simulates that baseline once and shares it (fig4 and fig5 across their
    curves and pairs, {!Predictor.build} with the run it keeps).
    [n_competitors] defaults to {!default_competitors}. *)

val to_series : curve -> Ppp_util.Series.t
(** Piecewise-linear drop(competing refs/sec) — the predictor's input. *)
