(** The first-class packet source: the unit of traffic generation.

    A source fills a preallocated packet in place, and is stateful, seeded,
    and self-describing: after each successful fill it reports the
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

val constant : unit -> t
(** The same 64-byte UDP frame (10.0.0.1:1000 to 10.0.0.2:2000) on every
    fill, as flow 0 with a monotone sequence; never exhausts. The input of
    SYN-style flows, whose elements never read the packet. *)
