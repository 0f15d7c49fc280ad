(** Table 1: solo-run characteristics of each packet-processing type. *)

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
val profiles : ?params:Ppp_core.Runner.params -> unit -> Ppp_core.Solo_profile.t list
val data_json : Ppp_core.Solo_profile.t list -> Output.Json.t
