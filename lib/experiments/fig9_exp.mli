(** Figure 9: predicted vs measured drop for a mixed workload — 2 MON,
    2 VPN, 1 FW and 1 RE flow sharing one socket. *)

type flow_check = {
  kind : Ppp_apps.App.kind;
  measured_drop : float;
  predicted_drop : float;
}

type data = { flows : flow_check list; max_error : float }

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
