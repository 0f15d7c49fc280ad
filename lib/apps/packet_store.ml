open Ppp_simmem

type t = { buf : Ibuf.t; mutable head : int }

let create ~heap ~capacity =
  if capacity <= 0 then invalid_arg "Packet_store.create";
  { buf = Ibuf.create heap capacity; head = 0 }

let capacity t = Ibuf.length t.buf

let readable t ~off ~len =
  len >= 0 && off >= 0 && off + len <= t.head && off >= t.head - capacity t

(* Split a virtual range into at most two physical chunks (ring wrap). *)
let chunks t ~off ~len f =
  let cap = capacity t in
  let p = off mod cap in
  let first = min len (cap - p) in
  if first > 0 then f ~phys:p ~voff:off ~len:first;
  if len - first > 0 then f ~phys:0 ~voff:(off + first) ~len:(len - first)

let append t b ~fn src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Packet_store.append: range";
  if len > capacity t then invalid_arg "Packet_store.append: larger than store";
  let start = t.head in
  chunks t ~off:start ~len (fun ~phys ~voff ~len ->
      Bytes.blit src (pos + voff - start) (Ibuf.bytes t.buf) phys len;
      Ibuf.touch_write t.buf b ~fn ~pos:phys ~len);
  t.head <- t.head + len;
  start

let read t b ~fn ~off ~len dst ~dst:dpos =
  if not (readable t ~off ~len) then invalid_arg "Packet_store.read: stale";
  if dpos < 0 || dpos + len > Bytes.length dst then
    invalid_arg "Packet_store.read: dst range";
  chunks t ~off ~len (fun ~phys ~voff ~len ->
      Bytes.blit (Ibuf.bytes t.buf) phys dst (dpos + voff - off) len;
      Ibuf.touch_read t.buf b ~fn ~pos:phys ~len)

let byte_at t off =
  if not (readable t ~off ~len:1) then invalid_arg "Packet_store.byte_at";
  Bytes.get (Ibuf.bytes t.buf) (off mod capacity t)
