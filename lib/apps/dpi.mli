(** Deep packet inspection: multi-pattern search with an Aho-Corasick
    automaton held in instrumented memory.

    DPI is one of the "emerging" packet-processing types the paper's
    Section 6 argues will need several megabytes of frequently accessed
    state; the dense byte-transition automaton here (256 x 4B per state)
    provides exactly that kind of footprint, with one memory reference per
    scanned payload byte. *)

type t

val create : heap:Ppp_simmem.Heap.t -> string list -> t
(** Builds the automaton for the given patterns (non-empty, at most 62 —
    match sets are bitmasks), with room for the sum of pattern lengths + 1
    states. Raises [Invalid_argument] on empty patterns or too many. *)

val scan :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> Bytes.t -> pos:int ->
  len:int -> (int * int) list
(** All matches in the byte range as (pattern index, end offset) pairs, in
    scan order; overlapping and nested matches are all reported. One
    instrumented transition read per byte. *)

val scan_quiet : t -> Bytes.t -> pos:int -> len:int -> (int * int) list
(** Un-instrumented (tests/oracles). *)

val element : ?drop_on_match:bool -> t -> Ppp_click.Element.t
(** Scans each packet's payload; with [drop_on_match] (default true) packets
    containing any pattern are dropped (IDS behaviour), otherwise matches
    are only counted. *)

val matches_seen : t -> int
(** Total matches reported through {!element} so far. *)
