(** Section 6: what changes when one core runs several flows.

    The paper restricts its method to one flow per core, noting that
    multiplexed flows additionally compete for the private L1/L2 caches, so
    L3-based profiling would no longer suffice. This experiment quantifies
    that: a DPI and an FW flow run (a) on two separate cores and (b)
    multiplexed on a single core. Alone on a core, the firewall's rules
    live in its L1/L2; multiplexed with DPI (whose automaton streams
    through the private caches between every two FW packets) the rule
    references escalate to the shared L3 — an effect invisible to the
    solo L3 profile. *)

type side = {
  label : string;
  total_pps : float;
  fw_rule_l3_refs_per_fw_packet : float;
      (** firewall-rule references that reached the shared L3, per firewall
          packet — near zero when the rules stay in the private caches *)
  fw_rule_l3_miss_per_fw_packet : float;
}

type data = {
  separate : side;  (** DPI and FW on their own cores *)
  multiplexed : side;  (** both round-robin on one core *)
  escalation : float;
      (** multiplexed / separate rule-refs-at-L3 per packet (>> 1 when
          private-cache contention appears) *)
}

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
