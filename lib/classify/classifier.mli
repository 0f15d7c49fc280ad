(** The slow-path classifier abstraction: what an upcall talks to.

    Both backends implement [S] over the same {!Rule} set and must agree —
    the differential oracle suite in [test/classify_tests.ml] holds them to
    the linear-scan reference bit for bit. *)

module type S = sig
  type t

  val name : string
  val create : heap:Ppp_simmem.Heap.t -> Rule.t array -> t

  val lookup :
    t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> Ppp_net.Flowid.t -> int
  (** The action of the best matching rule — highest priority, install
      order breaking ties — or {!Rule.no_match}. Instrumented: the search's
      memory references land in the builder under the given fn tag. *)

  val lookup_quiet : t -> Ppp_net.Flowid.t -> int
  (** Identical result with no effect on any caller-visible trace. *)
end

type kind = Tss | Range

val all : kind list
val kind_name : kind -> string

type packed
(** A backend instance with its implementation. *)

val make : heap:Ppp_simmem.Heap.t -> kind -> Rule.t array -> packed
val name : packed -> string

val lookup :
  packed -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> Ppp_net.Flowid.t -> int

val lookup_quiet : packed -> Ppp_net.Flowid.t -> int
