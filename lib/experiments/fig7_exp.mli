(** Figure 7: hit-to-miss conversion rate of a MON flow vs cache competition
    — measured overall, per function (radix_ip_lookup, flow_statistics,
    check_ip_header, skb_recycle), and estimated by the Appendix-A model. *)

type row = {
  competing_refs_per_sec : float;
  measured : float;  (** overall conversion rate *)
  per_fn : (string * float) list;
  model : float;
}

type data = { target : Ppp_apps.App.kind; rows : row list }

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
