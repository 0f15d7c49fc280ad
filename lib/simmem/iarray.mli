(** Instrumented arrays: real OCaml data placed at simulated addresses.

    Every [get]/[set] both performs the real operation and records the
    corresponding memory reference in the packet's trace builder, so
    applications compute correct results while producing a faithful address
    stream for the hardware model. [elem_bytes] controls spatial locality:
    elements smaller than a cache line share lines, exactly as packed C
    structs would. *)

type 'a t

val create : Heap.t -> elem_bytes:int -> int -> 'a -> 'a t
(** [create heap ~elem_bytes n x] allocates [n] elements initialized to [x].
    [elem_bytes] is the simulated size of one element (>= 1). *)

val init : Heap.t -> elem_bytes:int -> int -> (int -> 'a) -> 'a t

val relocate : Heap.t -> 'a t -> 'a t
(** [relocate heap t] is a view of [t]'s elements at a fresh simulated
    range on [heap], reserved exactly as {!create} would reserve it. The
    host data is shared, not copied, so a write through either view shows
    in both: treat both as read-only. *)

val length : 'a t -> int

val addr_of : 'a t -> int -> int
(** Simulated address of element [i]. *)

val get : 'a t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> int -> 'a
(** Instrumented load: records one read reference (to the element's first
    line) and returns the value. Elements spanning multiple lines record one
    reference per line. *)

val set : 'a t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> int -> 'a -> unit

val peek : 'a t -> int -> 'a
(** Un-instrumented read (verification/tests only — no trace side effect). *)

val poke : 'a t -> int -> 'a -> unit
(** Un-instrumented write (initialization paths that model no traffic). *)
