let round_robin sources =
  if sources = [] then invalid_arg "Multiplex.round_robin: empty";
  let arr = Array.of_list sources in
  let idx = ref 0 in
  fun now ->
    let item = arr.(!idx) now in
    idx := (!idx + 1) mod Array.length arr;
    item
