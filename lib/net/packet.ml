type t = { data : Bytes.t; mutable len : int; mutable buf_addr : int }

let create ?(cap = 1514) len =
  if len < 0 || len > cap then invalid_arg "Packet.create: bad length";
  { data = Bytes.make cap '\000'; len; buf_addr = 0 }

let copy t = { data = Bytes.copy t.data; len = t.len; buf_addr = t.buf_addr }
let capacity t = Bytes.length t.data

let resize t len =
  if len < 0 || len > capacity t then invalid_arg "Packet.resize";
  t.len <- len

(* Byte accessors keep the bounds check (indices come from arbitrary
   callers) but stay branch-free past it: [v land 0xFF] is already a valid
   char, so [Char.unsafe_chr] replaces the checked, raising [Char.chr]. *)
let[@inline] get8 t i = Char.code (Bytes.get t.data i)
let[@inline] set8 t i v = Bytes.set t.data i (Char.unsafe_chr (v land 0xFF))
let[@inline] get16 t i = (get8 t i lsl 8) lor get8 t (i + 1)

let[@inline] set16 t i v =
  set8 t i (v lsr 8);
  set8 t (i + 1) v

let[@inline] get32 t i = (get16 t i lsl 16) lor get16 t (i + 2)

let[@inline] set32 t i v =
  set16 t i (v lsr 16);
  set16 t (i + 2) v

let blit_string s t pos = Bytes.blit_string s 0 t.data pos (String.length s)
let sub_string t ~pos ~len = Bytes.sub_string t.data pos len
