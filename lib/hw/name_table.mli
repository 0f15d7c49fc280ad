(** An idempotent, mutex-guarded name → small-int table: the one
    implementation behind {!Fn} tags and {!Eid} element ids. Ids are
    dense from 0, in registration order. *)

type t

val create : capacity:int -> full:string -> t
(** Ids in [0, capacity); [register] raises [Failure full] past that. *)

val register : t -> string -> int
(** Idempotent and thread-safe: registration may run in worker domains. *)

val name : t -> int -> string
(** ["?"] for an unregistered id. Reads without the lock: an id's slot is
    written before [register] returns it. *)

val count : t -> int
