(** Section 4, "Containing hidden aggressiveness": a flow that profiles
    tame and turns into SYN_MAX mid-run damages a co-running MON flow;
    throttling its memory-reference rate to the profiled budget restores the
    victim's predicted performance. *)

type data = {
  victim_solo_pps : float;
  victim_with_tame_pps : float;  (** two-faced flow before it switches *)
  victim_with_loud_pps : float;  (** after the switch, unthrottled *)
  victim_with_throttled_pps : float;  (** after the switch, throttled *)
  victim_tame_drop : float;  (** {!Ppp_core.Runner.drop} of each co-run *)
  victim_loud_drop : float;
  victim_throttled_drop : float;
  attacker_refs_budget : float;  (** refs/sec allowed by the throttle *)
  attacker_loud_refs : float;  (** refs/sec it reached unthrottled *)
  attacker_throttled_refs : float;
}

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val render : data -> string
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
