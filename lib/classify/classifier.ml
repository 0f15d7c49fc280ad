module type S = sig
  type t

  val name : string
  val create : heap:Ppp_simmem.Heap.t -> Rule.t array -> t

  val lookup :
    t -> Ppp_hw.Trace.Builder.t -> fn:Ppp_hw.Fn.t -> Ppp_net.Flowid.t -> int

  val lookup_quiet : t -> Ppp_net.Flowid.t -> int
end

(* Conformance of the concrete backends is checked here, not in their own
   mlis, so the backends stay plain modules with richer interfaces. *)
module Check_tss : S = Tuple_space
module Check_range : S = Range_index

type kind = Tss | Range

let all = [ Tss; Range ]
let kind_name = function Tss -> "tss" | Range -> "range"

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let make ~heap kind rules =
  match kind with
  | Tss -> Packed ((module Tuple_space), Tuple_space.create ~heap rules)
  | Range -> Packed ((module Range_index), Range_index.create ~heap rules)

let name (Packed ((module M), _)) = M.name
let lookup (Packed ((module M), c)) b ~fn f = M.lookup c b ~fn f
let lookup_quiet (Packed ((module M), c)) f = M.lookup_quiet c f
