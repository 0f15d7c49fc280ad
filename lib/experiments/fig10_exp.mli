(** Figure 10: the (small) benefit of contention-aware scheduling.

    For several 12-flow combinations, every distinct flow-to-socket
    placement is evaluated; the figure reports the average drop under the
    best and worst placements (10a) and the per-flow breakdown for the
    6 MON + 6 FW combination (10b). *)

type combo_result = {
  combo : Ppp_core.Scheduler.combo;
  best : Ppp_core.Scheduler.evaluation;
  worst : Ppp_core.Scheduler.evaluation;
}

type data = {
  combos : combo_result list;
  detail : combo_result;  (** the 6 MON + 6 FW combination *)
}

val measure : ?params:Ppp_core.Runner.params -> ?combos:Ppp_core.Scheduler.combo list -> unit -> data
(** [combos] defaults to the paper's eight combinations, with per-kind
    counts scaled so every combo fills the machine's 2 * cores_per_socket
    cores. *)

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
