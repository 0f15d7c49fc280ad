(** Markov-modulated ON/OFF bursty sources.

    A two-state wrapper: OFF forwards packets from a base source
    (background traffic); ON lets a single burst flow — drawn at burst
    start from a dedicated id range — monopolize the link. Dwell times are
    geometric with means [mean_on] / [mean_off] packets, so the long-run
    fraction of burst packets converges to mean_on / (mean_on + mean_off)
    (the qcheck duty-cycle property). Bursts are what stress the monitor:
    a burst flow looks exactly like an emerging aggressor. *)

type t

val create :
  mean_on:int -> mean_off:int -> burst_flows:int -> ?flow_base:int -> unit -> t
(** [burst_flows] ids starting at [flow_base] (default 0) are reserved for
    bursts; keep them disjoint from the base source's ids. *)

val duty_cycle : t -> float
(** Realized fraction of packets emitted while ON. *)

val source : t -> rng:Ppp_util.Rng.t -> base:Source.t -> Source.t
(** The modulated source. OFF packets come from [base] (its flow/seq
    metadata is forwarded); ON packets are 64-byte {!Gen.fill_flow} packets
    with per-burst-flow sequence numbers. Exhausts when [base] does. *)
