type t = {
  entries : (int * int * int) array;
  zipf : Ppp_traffic.Zipf.t;
}

let host_mask plen = (1 lsl (32 - plen)) - 1

let make ~seed ~n16 ~routes =
  if n16 <= 0 || routes <= 0 then invalid_arg "Route_pool.make";
  let rng = Ppp_util.Rng.create ~seed in
  (* Distinct /16 blocks out of the unicast space. *)
  let blocks =
    Array.init n16 (fun _ ->
        let a = 1 + Ppp_util.Rng.int rng 222 and b = Ppp_util.Rng.int rng 256 in
        (a lsl 24) lor (b lsl 16))
  in
  let entries =
    Array.init routes (fun i ->
        ignore i;
        let block = blocks.(Ppp_util.Rng.int rng n16) in
        let plen =
          (* Mostly /24s (every lookup descends below the root), a few /28s. *)
          if Ppp_util.Rng.int rng 100 < 97 then 24 else 28
        in
        let suffix = Ppp_util.Rng.int rng 65536 land lnot (host_mask plen) in
        let prefix = block lor (suffix land 0xFFFF) in
        let hop = 1 + Ppp_util.Rng.int rng 65535 in
        (prefix, plen, hop))
  in
  { entries; zipf = Ppp_traffic.Zipf.create ~n:routes ~s:0.2 }

let routes t = t.entries

let install t trie =
  Array.iter
    (fun (prefix, plen, hop) -> Radix_trie.add_route trie ~prefix ~plen ~hop)
    t.entries

let suggested_max_nodes ~n16 ~routes = n16 + (routes * 3 / 10) + 128

type substrate = {
  pool : t;
  trie : Radix_trie.t;
  hop_table : int Ppp_simmem.Iarray.t;
}

(* Allocation order, which fixes every address: the trie (its node pool,
   then its root), then the next-hop table. [shared] relocates in the same
   order. *)
let build_substrate ~heap ~seed ~n16 ~routes =
  let pool = make ~seed ~n16 ~routes in
  let trie =
    Radix_trie.create ~heap
      ~max_nodes:(suggested_max_nodes ~n16 ~routes)
      ~default_hop:0 ()
  in
  install pool trie;
  (* Next-hop information records (gateway, egress port), one per route up
     to 64K entries, read on every forwarded packet. *)
  let hop_table =
    Ppp_simmem.Iarray.init heap ~elem_bytes:16 (min routes 65536) (fun i -> i)
  in
  { pool; trie; hop_table }

(* One template per (seed, n16, routes) per process, on a heap of its own
   whose addresses no flow ever sees. Parallel.map builds flows on several
   domains at once, hence the mutex. *)
let templates : (int * int * int, substrate) Hashtbl.t = Hashtbl.create 8
let templates_lock = Mutex.create ()

let template ~seed ~n16 ~routes =
  Mutex.protect templates_lock (fun () ->
      let key = (seed, n16, routes) in
      match Hashtbl.find_opt templates key with
      | Some s -> s
      | None ->
          let heap = Ppp_simmem.Heap.create ~node:0 in
          let s = build_substrate ~heap ~seed ~n16 ~routes in
          Hashtbl.add templates key s;
          s)

let shared ~heap ~seed ~n16 ~routes =
  let s = template ~seed ~n16 ~routes in
  let trie = Radix_trie.relocate ~heap s.trie in
  { s with trie; hop_table = Ppp_simmem.Iarray.relocate heap s.hop_table }

let pick_dst t idx salt =
  let prefix, plen, _ = t.entries.(idx) in
  prefix lor (salt land host_mask plen)

let random_dst t rng =
  let idx = Ppp_traffic.Zipf.sample t.zipf rng in
  pick_dst t idx (Ppp_util.Rng.int rng (1 lsl 16))

let dst_of_flow t f =
  let h = Ppp_util.Hashes.fnv1a_int f in
  pick_dst t (h mod Array.length t.entries) (h lsr 32)
