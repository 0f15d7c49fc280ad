(** The online contention monitor (Section 4 operationalized).

    Consumes the engine's deterministic per-slice sample stream and compares
    what each flow is *doing* against what its offline profile says it
    *should* do, in two directions:

    - {b Prediction violation} ([Flow_degraded]): the flow's smoothed drop
      against its solo throughput exceeds the drop the sensitivity curve
      predicts at the competitors' measured aggregate L3 refs/sec by more
      than [drop_margin]. This is the perfect-knowledge prediction
      ({!Ppp_core.Predictor.predict_drop_at}) evaluated online: when it
      fires, the world disagrees with the model, not just with the hope
      that competitors stay tame.
    - {b Hidden aggressor} ([Hidden_aggressor]): the flow's smoothed L3
      refs/sec exceeds its profiled solo rate by more than
      [aggressor_margin] — the paper's tame-in-the-lab, loud-in-production
      flow. Firing one also records a {!recommendation}: the
      {!Ppp_core.Throttle.l3_budget_source} budget that would pin the flow
      back to its profiled behaviour.

    Both alarms carry K-consecutive-slice hysteresis ([hysteresis]) in both
    directions; releasing one emits [Recovered].

    Slices arrive per-core but are compared per-epoch: the i-th slices of
    all flows, which share the engine's boundary grid. The detector queues
    each flow's stream and evaluates an epoch once every flow has reached
    it, so its verdicts are a pure function of the sample stream — and
    therefore byte-deterministic across job counts. *)

type flow_profile = {
  label : string;
  core : int;  (** the core the flow runs on; unique per detector *)
  solo_pps : float;
  solo_l3_refs_per_sec : float;
  predict_drop : (refs_per_sec:float -> float) option;
      (** the flow's sensitivity curve evaluated at a competing rate
          (typically {!Ppp_core.Predictor.predict_drop_at}); [None] disables
          degradation detection for this flow (nothing to violate). *)
}

val profile :
  ?predict_drop:(refs_per_sec:float -> float) ->
  label:string ->
  core:int ->
  Ppp_hw.Engine.result ->
  flow_profile
(** The flow's baseline, read from a solo run that has already been
    simulated (for a predicted flow, {!Ppp_core.Predictor.solo}): its
    throughput and L3 refs/sec. [?predict_drop] supplies the curve. *)

type config = {
  sample_cycles : int;  (** slice length; must match the engine probe's *)
  hysteresis : int;  (** K consecutive slices to arm or release an alarm *)
  aggressor_margin : float;
      (** fractional excess over profiled L3 refs/sec that counts as
          aggressive (0.5 = 50% over) *)
  drop_margin : float;
      (** absolute drop excess over the prediction that counts as a
          violation (0.1 = ten points of drop unexplained by the model) *)
  ewma_alpha : float;  (** EWMA weight of the newest slice, in (0, 1] *)
  budget_headroom : float;
      (** throttle recommendations are profiled refs/sec times
          [1 + budget_headroom] *)
}

val default_config : sample_cycles:int -> config
(** hysteresis 3, aggressor_margin 0.5, drop_margin 0.1, ewma_alpha 0.5,
    budget_headroom 0.05. *)

type event_kind =
  | Flow_degraded of { measured_drop : float; predicted_drop : float }
  | Hidden_aggressor of {
      measured_refs_per_sec : float;
      profiled_refs_per_sec : float;
    }
  | Recovered of { condition : string }
      (** [condition] names the alarm that released: ["flow_degraded"] or
          ["hidden_aggressor"] *)

val kind_name : event_kind -> string
(** ["flow_degraded"], ["hidden_aggressor"], or ["recovered"]. *)

type event = {
  e_epoch : int;  (** epoch index (i-th slice of every flow) *)
  e_t_cycles : int;  (** simulated time: the firing flow's slice end *)
  e_flow : string;
  e_core : int;
  e_kind : event_kind;
}

type recommendation = {
  r_flow : string;
  r_core : int;
  r_t_cycles : int;
  r_budget_l3_refs_per_sec : float;
      (** feed to {!Ppp_core.Throttle.l3_budget_source} to contain the flow *)
}

type row = {
  row_epoch : int;
  row_flow : string;
  row_core : int;
  row_rates : Estimator.rates;
  row_competing_refs_per_sec : float;
      (** sum of the other flows' smoothed L3 refs/sec this epoch *)
  row_measured_drop : float;  (** 1 - ewma_pps / solo_pps *)
  row_predicted_drop : float;  (** curve at the competing rate; 0 if none *)
  row_degraded : bool;  (** raw per-epoch condition, before hysteresis *)
  row_aggressor : bool;
}
(** One flow-epoch of the interpreted timeline. *)

type t

val create : config:config -> freq_hz:float -> flow_profile list -> t
(** Flows must cover every core to monitor; samples from other cores are
    ignored (they are invisible to this detector, including in competing
    sums — list every co-runner, with [predict_drop = None] if unjudged).
    A simulation is monitored through {!Report.monitored_run}, which creates,
    feeds and finalizes the detector around the run; [create] with {!feed}
    replays a recorded or synthetic sample stream. *)

val probe : t -> Ppp_hw.Engine.probe
(** The engine probe feeding this detector, on its [sample_cycles] grid.
    {!Ppp_core.Runner.run_with} tees it with the telemetry sampler, so a
    run can be both monitored and recorded. *)

val feed : t -> Ppp_hw.Engine.sample -> unit
(** Direct feed (what {!probe} calls); exposed for replaying samples. *)

val finalize : t -> unit
(** Evaluate any ragged final epochs (flows whose streams ended early are
    frozen at their last rates). Call once, after the run. *)

val config : t -> config
val profiles : t -> flow_profile list
val epochs : t -> int

val rows : t -> row list
(** The interpreted timeline, epoch-major then profile-list order. *)

val events : t -> event list
(** Fired events in emission (simulated-time) order. *)

val recommendations : t -> recommendation list

val budgets : t -> (int * float) list
(** Per-core L3 refs/sec budgets: the first recommendation for each core,
    the budget its alert asked for at detection time, in the order the
    cores were first flagged. *)

val count : t -> string -> int
(** The number of fired events of the given {!kind_name}. *)

val alerted : t -> core:int -> bool * bool
(** Current (degraded, aggressor) alarm states of the flow on [core] —
    after [finalize], the end-of-run verdict inputs. *)
