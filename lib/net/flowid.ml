type t = { src : int; dst : int; sport : int; dport : int; proto : int }

let of_packet p =
  {
    src = Ipv4.src p;
    dst = Ipv4.dst p;
    sport = Transport.src_port p;
    dport = Transport.dst_port p;
    proto = Ipv4.proto p;
  }

let hash t =
  let open Ppp_util in
  let h = Hashes.fnv1a_int t.src in
  let h = Hashes.combine h (Hashes.fnv1a_int t.dst) in
  let h = Hashes.combine h (Hashes.fnv1a_int ((t.sport lsl 20) lor (t.dport lsl 4) lor t.proto)) in
  h

(* [hash (of_packet p)] without materializing the record — the per-packet
   path of the NetFlow and flow-cache elements. Must stay bit-identical to
   [hash]. *)
let hash_of_packet p =
  let open Ppp_util in
  let h = Hashes.fnv1a_int (Ipv4.src p) in
  let h = Hashes.combine h (Hashes.fnv1a_int (Ipv4.dst p)) in
  Hashes.combine h
    (Hashes.fnv1a_int
       ((Transport.src_port p lsl 20)
       lor (Transport.dst_port p lsl 4)
       lor Ipv4.proto p))

let equal a b =
  a.src = b.src && a.dst = b.dst && a.sport = b.sport && a.dport = b.dport
  && a.proto = b.proto

let pp fmt t =
  Format.fprintf fmt "%s:%d -> %s:%d (%d)" (Ipv4.addr_to_string t.src) t.sport
    (Ipv4.addr_to_string t.dst) t.dport t.proto
