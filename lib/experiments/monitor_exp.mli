(** The online-monitor experiment: Section 4's hidden-aggressor scenario
    replayed under the {!Ppp_monitor} detector.

    Three phases over the same mix (MON victim, a two-faced aggressor
    sharing its L3, up to two profiled-tame co-runners): everyone tame (the
    monitor must stay silent), the aggressor switching to SYN_MAX behaviour
    mid-window (the monitor must raise [Hidden_aggressor] within its
    hysteresis window and recommend a throttle budget), and a closed-loop
    re-run with the recommended budget applied via
    {!Ppp_core.Throttle.l3_budget_source} (the monitor must observe
    recovery). *)

type phase = {
  cell : string;
  victim_pps : float;
  aggressor_l3_refs_per_sec : float;
  n_degraded : int;
  n_aggressor : int;
  n_recovered : int;
  first_aggressor_epoch : int option;
  verdicts : (string * string) list;  (** flow label -> end-of-run verdict *)
  alerts : Output.Json.t;  (** {!Ppp_monitor.Report.alerts_json} of the run *)
}

type data = {
  victim_solo_pps : float;
  aggressor_profiled_refs : float;
  sample_cycles : int;
  switch_after : int;  (** packets until the aggressor turns loud *)
  budget : float option;
      (** the loud run's first recommendation; [None] if never flagged *)
  tame : phase;
  loud : phase;
  throttled : phase;
}

val default_levels : Ppp_apps.App.syn_params list
(** Trimmed SYN ramp used for the online predictor's curves (5 levels —
    enough to interpolate a drop, much cheaper than the Figure 4 ramp). The
    traffic experiment calibrates its stationary curve on the same ramp. *)

val measure : ?params:Ppp_core.Runner.params -> unit -> data

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
