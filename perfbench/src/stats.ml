(* Quantiles by linear interpolation between closest ranks. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.quantile: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let median_int xs = median (List.map float_of_int xs)
