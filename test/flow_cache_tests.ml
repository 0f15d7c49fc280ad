(* The cached IP lookup: RadixIPLookup behind an exact-match
   Ppp_classify.Flow_table (the flowcache experiment's element). Pinned
   behaviours: capacity rounding, hit/miss counting, the don't-cache-unrouted
   rule, and an on/off oracle against the plain lookup element. *)

module Table = Ppp_classify.Flow_table

let heap () = Ppp_simmem.Heap.create ~node:0

let ctx () = Ppp_click.Ctx.create ()

let packet ~dst ~sport =
  let pkt = Ppp_net.Packet.create 60 in
  Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:0x0A000001 ~dst ~sport ~dport:443
    ~wire_len:64;
  pkt

let cached_lookup h ~entries ~trie ~hop_table =
  let table = Table.create ~heap:h ~entries () in
  (table, Ppp_experiments.Flowcache_exp.lookup_element table ~trie ~hop_table)

(* One route, 11.0.0.0/8 via hop 5, whose next-hop record reads 4. *)
let routed h =
  let trie = Ppp_apps.Radix_trie.create ~heap:h ~max_nodes:16 ~default_hop:0 () in
  Ppp_apps.Radix_trie.add_route trie ~prefix:0x0B000000 ~plen:8 ~hop:5;
  (trie, Ppp_simmem.Iarray.init h ~elem_bytes:16 16 (fun i -> i))

let test_capacity_rounding () =
  let h = heap () in
  Alcotest.(check int) "100 -> 128" 128
    (Table.capacity (Table.create ~heap:h ~entries:100 ()));
  Alcotest.(check int) "min 16" 16
    (Table.capacity (Table.create ~heap:h ~entries:1 ()));
  Alcotest.check_raises "entries=0 rejected"
    (Invalid_argument "Flow_table.create") (fun () ->
      ignore (Table.create ~heap:h ~entries:0 () : Table.t))

let test_miss_then_hit () =
  let h = heap () in
  let trie, hop_table = routed h in
  let table, el = cached_lookup h ~entries:16 ~trie ~hop_table in
  let ctx = ctx () in
  let pkt = packet ~dst:0x0B000001 ~sport:1000 in
  (match el ctx pkt with
  | Ppp_click.Element.Forward -> ()
  | Ppp_click.Element.Drop -> Alcotest.fail "routed packet dropped");
  Alcotest.(check int) "egress port annotated" 4 (Ppp_net.Packet.get8 pkt 0);
  Alcotest.(check (pair int int)) "first probe misses" (0, 1)
    (Table.hits table, Table.misses table);
  ignore (el ctx pkt : Ppp_click.Element.verdict);
  Alcotest.(check (pair int int)) "second probe hits" (1, 1)
    (Table.hits table, Table.misses table)

let test_unrouted_not_cached () =
  let h = heap () in
  let trie, hop_table = routed h in
  let table, el = cached_lookup h ~entries:16 ~trie ~hop_table in
  let ctx = ctx () in
  let pkt = packet ~dst:0xC0000001 ~sport:1000 in
  (match el ctx pkt with
  | Ppp_click.Element.Drop -> ()
  | Ppp_click.Element.Forward -> Alcotest.fail "unrouted packet forwarded");
  ignore (el ctx pkt : Ppp_click.Element.verdict);
  Alcotest.(check (pair int int)) "unrouted never fills the cache" (0, 2)
    (Table.hits table, Table.misses table)

(* The on/off oracle. Per case: a random route table (prefixes /8 to /28)
   with a random next-hop table, and a universe of flows, half aimed inside
   a route and half at random addresses (mostly unrouted). Eight random
   packets per flow, on average, run through the cached element and through
   RadixIPLookup. The setups: cold (each flow's first packet on a fresh
   1024-slot table), warm (its later packets) and a 16-slot table, which up
   to 40 flows overflow so installs evict. On every packet the verdicts and
   the packets' bytes (the egress-port annotation) must match, hits +
   misses must count every packet, and an unrouted flow must never be
   installed. *)
let agrees_with_plain_lookup ~entries (seed, n_routes, n_flows) =
  let rng = Ppp_util.Rng.create ~seed in
  let h = heap () in
  let trie = Ppp_apps.Radix_trie.create ~heap:h ~max_nodes:256 ~default_hop:0 () in
  let routes =
    Array.init n_routes (fun _ ->
        let plen = 8 + Ppp_util.Rng.int rng 21 in
        let host = (1 lsl (32 - plen)) - 1 in
        let prefix = Ppp_util.Rng.int rng (1 lsl 32) land lnot host in
        Ppp_apps.Radix_trie.add_route trie ~prefix ~plen
          ~hop:(1 + Ppp_util.Rng.int rng 1000);
        (prefix, host))
  in
  let hop_table =
    Ppp_simmem.Iarray.init h ~elem_bytes:16 256 (fun _ -> Ppp_util.Rng.int rng 256)
  in
  let flows =
    Array.init n_flows (fun _ ->
        let dst =
          if Ppp_util.Rng.bool rng then
            let prefix, host = routes.(Ppp_util.Rng.int rng n_routes) in
            prefix lor (Ppp_util.Rng.int rng (1 lsl 32) land host)
          else Ppp_util.Rng.int rng (1 lsl 32)
        in
        (dst, 1024 + Ppp_util.Rng.int rng 60000))
  in
  let table, cached = cached_lookup h ~entries ~trie ~hop_table in
  let plain = Ppp_apps.Ip_elements.radix_ip_lookup ~hop_table trie in
  let ctx = ctx () in
  let packets = ref 0 and ok = ref true in
  for _ = 1 to 2 * 4 * n_flows do
    let dst, sport = flows.(Ppp_util.Rng.int rng n_flows) in
    let a = packet ~dst ~sport and b = packet ~dst ~sport in
    Ppp_hw.Trace.Builder.clear ctx.Ppp_click.Ctx.builder;
    let va = cached ctx a in
    let vb = plain ctx b in
    incr packets;
    let unrouted = Ppp_apps.Radix_trie.lookup_quiet trie dst = 0 in
    if
      va <> vb
      || Ppp_net.Packet.sub_string a ~pos:0 ~len:64
         <> Ppp_net.Packet.sub_string b ~pos:0 ~len:64
      || Table.hits table + Table.misses table <> !packets
      || unrouted
         && Table.find_flowid table (Ppp_net.Flowid.of_packet a) <> Table.absent
    then ok := false
  done;
  !ok

let prop_cached_lookup_oracle =
  QCheck.Test.make ~count:100
    ~name:"cached lookup = RadixIPLookup (cold, warm, evicting)"
    QCheck.(triple (int_bound 1_000_000) (int_range 1 40) (int_range 1 40))
    (fun case ->
      agrees_with_plain_lookup ~entries:1024 case
      && agrees_with_plain_lookup ~entries:16 case)

let tests =
  [
    Alcotest.test_case "capacity rounding" `Quick test_capacity_rounding;
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "unrouted not cached" `Quick test_unrouted_not_cached;
    QCheck_alcotest.to_alcotest prop_cached_lookup_oracle;
  ]
