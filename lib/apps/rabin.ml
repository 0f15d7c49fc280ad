let window = 32

(* Mersenne prime 2^31 - 1: operand products fit in OCaml's 63-bit ints, so
   modular arithmetic needs no splitting. Fingerprints are 31 bits; matches
   are verified byte-for-byte, so collisions only cost a failed probe. *)
let modulus = (1 lsl 31) - 1
let base = 263

type state = int

(* x mod p without a division, for 0 <= x < 2^41: since 2^31 = 1 (mod p)
   the bits above 31 fold onto the low ones, landing below p + 2^10 < 2p,
   and one subtraction makes the result canonical. Every x below is at
   most (2p - 2) * base + 256 < 2^41. *)
let[@inline] reduce x =
  let y = (x land modulus) + (x lsr 31) in
  if y >= modulus then y - modulus else y

(* base^(window-1) mod p, the weight of the outgoing byte. *)
let top_coeff =
  let rec go acc n = if n = 0 then acc else go (acc * base mod modulus) (n - 1) in
  go 1 (window - 1)

(* remove.(c) = -(c+1) * base^(window-1) mod p, in [1, p-1]: adding it
   drops outgoing byte c and keeps the sum non-negative. *)
let remove = Array.init 256 (fun c -> modulus - ((c + 1) * top_coeff mod modulus))

let init b ~pos =
  (* Bounds written so that no sum can overflow: the reads are unchecked. *)
  if pos < 0 || pos > Bytes.length b - window then invalid_arg "Rabin.init";
  let fp = ref 0 in
  for i = pos to pos + window - 1 do
    fp := reduce ((!fp * base) + Char.code (Bytes.unsafe_get b i) + 1)
  done;
  !fp

let roll st b ~pos =
  if pos < 1 || pos > Bytes.length b - window then invalid_arg "Rabin.roll";
  let outgoing = Char.code (Bytes.unsafe_get b (pos - 1)) in
  let incoming = Char.code (Bytes.unsafe_get b (pos + window - 1)) in
  reduce (((st + Array.unsafe_get remove outgoing) * base) + incoming + 1)

let value st = st
let fingerprint b ~pos = init b ~pos
let is_sample fp ~mask = fp land mask = 0
