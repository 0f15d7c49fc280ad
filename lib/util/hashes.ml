let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let mask62 = (1 lsl 62) - 1

let fnv1a_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Hashes.fnv1a_bytes: slice out of bounds";
  let h = ref fnv_offset in
  for i = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) fnv_prime
  done;
  Int64.to_int !h land mask62

let fnv1a_int x =
  let h = ref fnv_offset in
  for i = 0 to 7 do
    let byte = (x lsr (8 * i)) land 0xFF in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime
  done;
  Int64.to_int !h land mask62

(* One round of Bob Jenkins' 96-bit mix over (h1, h2, golden ratio),
   keeping only the [c] lane: no result tuple, so no allocation on the
   per-packet flow-hash path. *)
let combine h1 h2 =
  let a = h1 and b = h2 and c = 0x9E3779B9 in
  let a = (a - b - c) lxor (c lsr 13) in
  let b = (b - c - a) lxor (a lsl 8) in
  let c = (c - a - b) lxor (b lsr 13) in
  let a = (a - b - c) lxor (c lsr 12) in
  let b = (b - c - a) lxor (a lsl 16) in
  let c = (c - a - b) lxor (b lsr 5) in
  c land mask62
