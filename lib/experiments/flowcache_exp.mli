(** Extension: what does an exact-match fast path do under contention?

    A flow cache in front of the LPM trie lets most packets (of a
    convergent flow universe) skip the trie walk. Its own lines live in the
    contended L3, but its footprint is much smaller than the trie's — so
    under aggressive co-runners the fast path's *relative* advantage grows:
    every avoided trie reference is a reference whose cost contention just
    inflated. Shrinking a flow's reference footprint is thus a
    contention-mitigation lever (it also lowers the flow's own
    aggressiveness, cf. Section 4's throttling discussion).

    The cache is a {!Ppp_classify.Flow_table} of 4,096 32-byte slots
    (128 KiB) with its default probe window. *)

val lookup_element :
  Ppp_classify.Flow_table.t ->
  trie:Ppp_apps.Radix_trie.t ->
  hop_table:int Ppp_simmem.Iarray.t ->
  Ppp_click.Element.t
(** RadixIPLookup behind the flow table: the same verdict and egress-port
    annotation, with the port cached per flow. A hit costs the table probe
    and skips the trie walk and the next-hop read; a miss does both and
    installs a routed flow's port. Unrouted packets are dropped and never
    installed. Counts under its own tag, ["cached_ip_lookup"]. *)

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
