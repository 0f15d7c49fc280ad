(** Instrumented byte buffers (packet payload, packet-store segments).

    Holds a real [Bytes.t] whose simulated placement starts at a fixed
    address; ranges touched by an application record one memory reference per
    cache line covered. *)

type t

val create : Heap.t -> int -> t

val length : t -> int
val bytes : t -> Bytes.t
(** The backing store, for real data manipulation. *)

val touch_read :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> pos:int -> len:int -> unit
(** Record loads covering [pos, pos+len): one per 64B line. *)

val touch_write :
  t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> pos:int -> len:int -> unit
