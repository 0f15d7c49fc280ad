(** Per-flow reordering detector.

    Tracks each flow's highest sequence number; a packet arriving with a
    sequence below its flow's high-water mark was overtaken in flight (the
    RFC 4737 reordered-singleton metric). Fed by {!Source.last_flow} /
    {!Source.last_seq} after each fill — {!Ppp_click.Flow} does this for
    every packet, which is how the per-flow latency histograms gain their
    reorder column.

    Flow state lives in a direct-mapped cache indexed by
    [flow land (slots - 1)], so {!observe} never allocates. A collision
    evicts the resident flow and resets its mark, which can only
    under-count: in-order sources report zero reorders unconditionally,
    and counts are exact whenever the observed flow ids span fewer than
    [slots] values (all the built-in generators at experiment sizes). *)

type t

val create : ?slots:int -> unit -> t
(** [slots] (default 16384) must be a positive power of two; raises
    [Invalid_argument] otherwise. *)

val observe : t -> flow:int -> seq:int -> bool
(** Feed one packet; [true] iff this arrival is a reordered singleton
    (below its flow's high-water mark). Callers route the packet's latency
    into the in-order or reordered histogram column accordingly. *)

val observed : t -> int
(** Packets observed. *)

val reorders : t -> int
(** Packets that arrived below their flow's high-water mark. *)
