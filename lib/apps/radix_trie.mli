(** Multibit radix trie for IPv4 longest-prefix-match, after Click's
    RadixIPLookup (the paper's IP application, Section 2.1).

    Strides are 16-8-8: a 65536-entry root indexed by the top 16 address
    bits, then 256-entry nodes per level. Prefix expansion fills every entry
    a route covers; each entry stores the best (longest) matching next hop
    seen so far plus a child pointer, so lookups need no backtracking.

    The trie lives in instrumented memory: [lookup] records one memory
    reference per node visited — the address stream that makes IP forwarding
    cache-sensitive. *)

type t

val create :
  heap:Ppp_simmem.Heap.t -> ?max_nodes:int -> default_hop:int -> unit -> t
(** [max_nodes] bounds the number of non-root nodes (default 16384). *)

val relocate : heap:Ppp_simmem.Heap.t -> t -> t
(** [relocate ~heap t] is a read-only view of [t]'s routes at a fresh
    simulated range on [heap]: the host entries are shared, and the view
    reserves the same bytes in the same order as {!create}, so on a fresh
    heap it has the addresses a trie built there from scratch would have.
    [t] must not change afterwards. *)

val add_route : t -> prefix:int -> plen:int -> hop:int -> unit
(** Un-instrumented insertion (tables are built at configuration time, not
    on the data path). [plen] in [0, 32]; [hop] must be positive. Longest
    prefix wins; equal-length later routes overwrite earlier ones. Raises
    [Invalid_argument] on a {!relocate}d view. *)

val lookup : t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> int -> int
(** Instrumented lookup of a destination address: the real next hop, with
    one trace reference per visited node entry. *)

val lookup_quiet : t -> int -> int
(** Reference lookup without instrumentation (for tests/oracles). *)
