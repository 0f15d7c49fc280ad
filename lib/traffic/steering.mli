(** NIC steering models: RSS hashing vs Flow-Director perfect steering.

    RSS computes core = hash(flow) mod cores — stateless, so packets of a
    flow always land on the same queue and are never reordered.

    Flow Director pins flows to cores through an on-NIC table and
    rebalances by migrating flows; each migration strands the flow's
    in-flight packet on the old core's queue, where the first packet
    steered to the new core overtakes it ("Why Does Flow Director Cause
    Packet Reordering?", PAPERS.md). The model reproduces exactly one
    sequence inversion per migration, counted at the moment the stranded
    packet drains — so a downstream {!Reorder} detector observes precisely
    {!migrations} inversions under Flow Director and zero under RSS (the
    qcheck property). Packet bytes are never modified; reordering is
    visible only through sequence metadata. *)

type model = Rss | Flow_director

val model_name : model -> string
(** ["rss"] / ["fdir"]. *)

type t

val create : ?migrate_every:int -> cores:int -> model -> t
(** [migrate_every] (default 0 = never) triggers a Flow-Director migration
    of the flow being delivered every that-many deliveries; ignored under
    RSS and when [cores = 1]. *)

val migrations : t -> int
(** Completed Flow-Director migrations (stranded packet drained). Equals
    the reorder count an observer sees. Always 0 under RSS. *)

val source : t -> Source.t -> Source.t
(** Wraps a source so its flow/sequence metadata passes through the
    steering model (packet bytes untouched). *)
