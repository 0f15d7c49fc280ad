(** A reproducible set of IPv4 routes plus matching destination traffic.

    The paper drives IP forwarding with random destination addresses over a
    128000-entry table. The pool draws routes from a bounded set of /16
    blocks (as real tables do) so the trie footprint is controlled, and
    generates destinations covered by those routes with Zipf-distributed
    route popularity. *)

type t

val make : seed:int -> n16:int -> routes:int -> t
(** Deterministic in [seed]: the same parameters always give the same routes
    (so separately built generators and tables agree). *)

val routes : t -> (int * int * int) array
(** (prefix, plen, hop) triples; hops are in [1, 255]. *)

val install : t -> Radix_trie.t -> unit

val suggested_max_nodes : n16:int -> routes:int -> int
(** Trie node-pool size sufficient for a pool with these parameters. *)

(** {2 The IP forwarding substrate}

    The route pool, its radix trie and the next-hop table: what every IP
    flow forwards over, and a pure function of (seed, n16, routes). *)

type substrate = {
  pool : t;
  trie : Radix_trie.t;
  hop_table : int Ppp_simmem.Iarray.t;
      (** next-hop records, 16 simulated bytes each, one per route up to
          65536 *)
}

val build_substrate :
  heap:Ppp_simmem.Heap.t -> seed:int -> n16:int -> routes:int -> substrate
(** Builds a substrate from scratch on [heap]: the trie (node pool, then
    root), then the next-hop table. *)

val shared :
  heap:Ppp_simmem.Heap.t -> seed:int -> n16:int -> routes:int -> substrate
(** The same substrate as {!build_substrate}, with the same simulated
    footprint and, on the same heap state, the same addresses. The host
    tables are built once per (seed, n16, routes) per process and shared
    read-only by every view: the trie is a {!Radix_trie.relocate}d view,
    the next-hop table an {!Ppp_simmem.Iarray.relocate}d one, and [pool]
    is the one shared pool. Safe to call from several domains. *)

val random_dst : t -> Ppp_util.Rng.t -> int
(** A destination covered by a Zipf-popular route, random within the
    prefix's host bits. *)

val dst_of_flow : t -> int -> int
(** Deterministic destination for a flow index (stable 5-tuples). *)
