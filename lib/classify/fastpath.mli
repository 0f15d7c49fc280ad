(** The drop-in classification element: flow-table fast path in front of a
    slow-path classifier, with the OVS upcall protocol between them.

    Hit: one table probe, cached action, forward (or drop for a cached
    {!Rule.no_match} megaflow). Miss: charge the upcall's kernel-crossing
    cost, run the slow-path classifier (its memory traffic lands under the
    upcall fn tag), install the result — including negative caching of
    no-match — and proceed as a hit would have. *)

type t

val create :
  heap:Ppp_simmem.Heap.t ->
  ?table_entries:int ->
  ?probe_limit:int ->
  backend:Classifier.kind ->
  Rule.t array ->
  t
(** Every miss charges the upcall's 400 instructions for the
    fast-path-to-slow-path transition itself (context switch, queueing);
    the classifier search adds its own references on top. *)

val element : t -> Ppp_click.Element.t
(** Forward with the action written into the packet's first byte, or Drop
    when the winning action is {!Rule.no_match}. *)

val table : t -> Flow_table.t

val upcalls : t -> int
(** Number of misses that went to the slow path (= table misses). *)

val fn_fast : Ppp_hw.Fn.t
val fn_upcall : Ppp_hw.Fn.t
