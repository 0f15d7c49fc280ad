(** The first-class packet source: the unit of traffic generation.

    A source fills a preallocated packet in place (like the bare
    [Ppp_click.Flow.generator] closure it replaces) but is stateful,
    seeded, and self-describing: after each successful fill it reports the
    flow identity and the per-flow sequence number of the packet it just
    produced. Sequence numbers are what make reordering *observable* — a
    downstream {!Reorder} detector counts the inversions that NIC steering
    models (see {!Steering}) introduce.

    The fill hot path is allocation-free by contract: [status] has constant
    constructors only, and the built-in sources draw integers (never
    floats) from {!Ppp_util.Rng}. The [alloc] test suite pins a heavy-tail
    fill loop at zero bytes. *)

type status =
  | Filled  (** the packet holds the next input frame *)
  | Exhausted
      (** the source has no more packets (a finite capture replayed with
          [loop:false]); the typed replacement for the [Failure] that
          [Pcap.replay] used to raise past the end *)

type t

exception Exhausted_source of string
(** Raised only by {!to_gen} compatibility closures, never by {!fill}. *)

val make : ?name:string -> fill:(t -> Ppp_net.Packet.t -> status) -> unit -> t
(** A source from a fill function. The function receives the source itself
    so it can record flow identity via {!set_meta}; implementations that
    skip [set_meta] report flow 0 with a monotone sequence (never
    reordered). *)

val fill : t -> Ppp_net.Packet.t -> status
(** Fills the packet with the next input frame and updates
    {!last_flow}/{!last_seq}/{!packets}. Allocation-free for the built-in
    sources. *)

val set_meta : t -> flow:int -> seq:int -> unit
(** For fill implementations: record the flow id and per-flow sequence
    number of the packet being produced. *)

val name : t -> string

val last_flow : t -> int
(** Flow id of the most recently filled packet. *)

val last_seq : t -> int
(** Per-flow sequence number of the most recently filled packet. A flow's
    packets leave their sender with consecutive sequence numbers; a
    downstream observer seeing them out of order has witnessed reordering. *)

val packets : t -> int
(** Total packets filled so far. *)

val of_gen : ?name:string -> (Ppp_net.Packet.t -> unit) -> t
(** Compatibility wrapper for the bare generator closures the experiments
    used to pass around: flow 0, sequence = packet count (monotone, so a
    wrapped closure can never appear reordered), never exhausts. *)

val to_gen : t -> Ppp_net.Packet.t -> unit
(** The inverse wrapper, for call sites that still want a closure. Raises
    {!Exhausted_source} if the source dries up — closures have no way to
    return a typed end-of-capture. *)
