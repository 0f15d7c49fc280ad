(** The RE "packet store": a ring of recently observed payload bytes.

    Offsets are virtual (monotonically increasing); a virtual offset is
    readable while it is within the last [capacity] bytes written. The store
    is sized to hold about one second's worth of traffic (Section 2.1), far
    exceeding the L3 — this is why RE barely benefits from caching. *)

type t

val create : heap:Ppp_simmem.Heap.t -> capacity:int -> t

val append :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> Bytes.t -> pos:int ->
  len:int -> int
(** Copies bytes into the store (instrumented line writes) and returns the
    virtual offset of the first byte written. *)

val readable : t -> off:int -> len:int -> bool
(** True when [off, off+len) is still resident. *)

val read :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> off:int -> len:int ->
  Bytes.t -> dst:int -> unit
(** Copies [len] resident bytes at virtual [off] out of the store
    (instrumented line reads). Raises [Invalid_argument] if not
    {!readable}. *)

val byte_at : t -> int -> char
(** Un-instrumented single-byte peek (match extension / tests). Offset must
    be readable. *)
