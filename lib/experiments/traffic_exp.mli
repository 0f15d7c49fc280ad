(** Extension: prediction and monitoring under realistic traffic.

    The paper calibrates a flow's sensitivity curve and the monitor's
    profiles under stationary uniform traffic. This experiment drives a
    classification pipeline with production source models — heavy-tailed
    flow sizes ({!Ppp_traffic.Heavy_tail}), Markov-modulated bursts
    ({!Ppp_traffic.Onoff}) and flow churn ({!Ppp_traffic.Churn}) — behind
    an RSS or Flow-Director steering model ({!Ppp_traffic.Steering}), and
    reports how far the stationary-calibrated prediction drifts
    (|measured - predicted| drop vs 5 SYN_MAX co-runners), how many false
    aggressor alerts the monitor raises with no aggressor present, and the
    reordering each steering model produces (one sequence inversion per
    Flow-Director migration; zero under RSS). Every run sweeps all six
    model cells under both steering models. *)

type cell = {
  model : string;  (** "heavy" | "onoff" | "churn" *)
  knob : string;  (** model-specific skew knob, e.g. "alpha=1.1" *)
  steering : string;  (** "rss" | "fdir" *)
  solo_pps : float;
  measured_drop : float;  (** vs 5 SYN_MAX co-runners *)
  predicted_drop : float;  (** stationary twin curve at measured refs *)
  abs_err : float;  (** |measured - predicted| *)
  false_alerts : int;  (** hidden-aggressor alerts; no aggressor exists *)
  reorders : int;  (** victim-observed sequence inversions (co-run) *)
  migrations : int;  (** Flow-Director flow migrations (co-run) *)
  evictions : int;  (** flow-table evictions (co-run) *)
  packets : int;  (** victim packets in the measured window (co-run) *)
  lat_p99_inorder : int;
      (** p99 per-packet latency (cycles) over in-order deliveries (co-run) *)
  lat_p99_reordered : int;
      (** p99 latency over reordered deliveries; 0 when none were reordered
          — every RSS cell, where steering never migrates a flow *)
}

type data = {
  twin_solo_pps : float;
  curve_points : (float * float) list;  (** (competing refs/s, drop) *)
  cells : cell list;
}

val data_json : data -> Output.Json.t
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
