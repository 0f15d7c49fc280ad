open Ppp_simmem

(* Slot packing: bits 0-39 store offset + 1 (0 = empty), bits 40-61 tag. *)
type t = { slots : int Iarray.t; mask : int }

let rec pow2 n v = if v >= n then v else pow2 n (v * 2)

let create ~heap ~entries =
  if entries <= 0 then invalid_arg "Fingerprint_table.create";
  let cap = pow2 entries 16 in
  { slots = Iarray.create heap ~elem_bytes:8 cap 0; mask = cap - 1 }

let tag_of fp = (fp lsr 8) land 0x3FFFFF
let index t fp = Ppp_util.Hashes.fnv1a_int fp land t.mask

let insert t b ~fn ~fp ~off =
  if off < 0 || off >= 1 lsl 40 then invalid_arg "Fingerprint_table.insert: off";
  Iarray.set t.slots b ~fn (index t fp) ((tag_of fp lsl 40) lor (off + 1))

let lookup t b ~fn ~fp =
  let v = Iarray.get t.slots b ~fn (index t fp) in
  let off = (v land ((1 lsl 40) - 1)) - 1 in
  if off >= 0 && v lsr 40 = tag_of fp then Some off else None
