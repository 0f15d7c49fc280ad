(** The application catalogue: the paper's five realistic packet-processing
    flow types (Section 2.1) plus the SYN synthetic profiler, each bundled
    with the adversarial traffic generator the paper pairs it with.

    All sizes are the paper's, divided by the machine's [scale] factor so
    footprint-to-cache ratios are preserved on scaled-down configurations:

    - IP: full forwarding over a 131072/scale-route table, random routed
      destinations.
    - MON: IP + NetFlow over 100000/scale flows.
    - FW: MON + 1000-rule sequential firewall; traffic never matches, so
      every packet scans all rules.
    - RE: MON + redundancy elimination (32MB/scale packet store,
      4M/scale-entry fingerprint table), 60%-redundant 1KB packets.
    - VPN: MON + AES-128-CTR encryption of 576-byte packets.
    - DPI (extension): MON + multi-pattern payload inspection over an
      automaton sized like the paper's Section-6 discussion.
    - SYN: configurable compute + random reads over an L3-sized buffer. *)

type syn_params = { reads : int; instrs : int }

type kind =
  | IP
  | MON
  | FW
  | RE
  | VPN
  | DPI  (** extension: MON + Aho-Corasick inspection (Section 6's "emerging"
             deep-packet-inspection type; not part of the paper's five) *)
  | SYN of syn_params

val syn_max : kind
(** The most aggressive synthetic flow: memory accesses at the highest
    possible rate, no other processing. *)

val realistic : kind list
(** [IP; MON; FW; RE; VPN]. *)

val name : kind -> string
val of_name : string -> kind option
(** Recognizes "IP" "MON" "FW" "RE" "VPN" "DPI" "SYN_MAX" and
    "SYN:<reads>:<instrs>". *)

type built = {
  elements : Ppp_click.Element.t list;
  source : Ppp_traffic.Source.t;
      (** the workload's traffic source (per-flow sequence numbers for the
          realistic apps; {!Ppp_traffic.Source.constant} for SYN) *)
}

val build :
  kind -> heap:Ppp_simmem.Heap.t -> rng:Ppp_util.Rng.t -> scale:int -> built
(** Instantiates the application's elements (state allocated on [heap]) and
    its traffic generator. Deterministic given the rng state. *)

val ip_substrate : heap:Ppp_simmem.Heap.t -> scale:int -> Route_pool.substrate
(** The forwarding substrate every realistic flow at [scale] runs over (see
    {!Route_pool.shared}): its route pool, trie and next-hop table, placed
    on [heap]. *)

val tuple_source :
  rng:Ppp_util.Rng.t ->
  pool:Route_pool.t ->
  flows:int ->
  wire:int ->
  payload:(Ppp_net.Packet.t -> unit) ->
  Ppp_traffic.Source.t
(** The realistic apps' traffic: each packet is one of [flows] flows, drawn
    uniformly from [rng], with a stable 5-tuple per flow routed through
    [pool], [wire] bytes on the wire, its payload written by [payload], and
    per-flow sequence numbers. *)

val no_payload : Ppp_net.Packet.t -> unit
(** The [payload] of a flow whose payload bytes are never read. *)

val flow :
  kind ->
  heap:Ppp_simmem.Heap.t ->
  rng:Ppp_util.Rng.t ->
  scale:int ->
  ?label:string ->
  unit ->
  Ppp_click.Flow.t
(** Convenience: [build] wrapped into a {!Ppp_click.Flow}. *)

val wire_len : kind -> int
(** The workload's packet size on the wire. *)

val working_set_bytes : kind -> scale:int -> int
(** Rough estimate of the flow's cacheable data footprint (hot trie levels,
    flow table, rules, RE structures, SYN buffer) — the [W] parameter of the
    Appendix-A cache model. *)
