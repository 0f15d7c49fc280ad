(** Element ids for per-element performance attribution.

    Every traced operation carries a small integer element id naming the
    Click element (or driver stage) that issued it; the profiler aggregates
    cycles, instructions, L3 behaviour and latency per id — the element
    path through a chain is the profiler's "stack". Ids are registered by
    name and idempotent, like {!Fn} tags; both registries are the same
    mutex-protected table implementation, because elements are
    instantiated from worker domains.

    Registration order depends on domain scheduling, so raw ids are only
    meaningful within one process run: exporters must key everything by
    {!name}, never by the id itself. *)

type t = int
(** A registered element id, in [0, max_ids). *)

val max_ids : int
(** Upper bound on distinct element ids (128). *)

val register : string -> t
(** [register name] returns the id for [name], allocating one on first use.
    Idempotent; thread-safe. Raises [Failure] if the registry is full. *)

val name : t -> string
(** Name of a registered id; ["?"] for unregistered values. *)

val count : unit -> int
(** Number of registered ids so far (including {!other}). *)

val other : t
(** The pre-registered catch-all id 0, named ["(other)"]: operations traced
    outside any element (builder default) are attributed here. *)
