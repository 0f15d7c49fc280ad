type t = {
  experiment : string;
  cell : string;
  t_cycles : int;
  core : int;
  flow : string;
  name : string;
  args : (string * Json.t) list;
}

(* Field order above is the sort significance order; the record holds only
   ints, strings and Json values (no closures), so the polymorphic compare
   is a safe deterministic total order — same discipline as
   {!Timeseries.compare}. *)
let compare (a : t) (b : t) = Stdlib.compare a b
