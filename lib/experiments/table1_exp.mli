(** Table 1: solo-run characteristics of each packet-processing type — the
    simulator's version of the paper's Oprofile characterization, derived
    from the {!Exp_common.solo_results} baselines every other experiment
    shares. *)

type row = {
  kind : Ppp_apps.App.kind;
  throughput_pps : float;
  cycles_per_instruction : float;
  l3_refs_per_sec : float;  (** millions are printed, raw stored *)
  l3_hits_per_sec : float;
  cycles_per_packet : float;
  l3_refs_per_packet : float;
  l3_misses_per_packet : float;
  l2_hits_per_packet : float;
  l1_hits_per_packet : float;
}

val of_result : Ppp_apps.App.kind -> Ppp_hw.Engine.result -> row
(** The row of a kind's solo run. Raises [Invalid_argument] (from
    {!Ppp_core.Runner.per_packet}) when the run completed no packet. *)

val profiles : ?params:Ppp_core.Runner.params -> unit -> row list
(** One row per realistic kind, then SYN_MAX. *)

val render : row list -> string
(** Rendered with the same columns as the paper's Table 1. *)

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
