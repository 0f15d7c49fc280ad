(* The differential oracle suite for the fast-path/slow-path classifier.

   The reference is an independent linear-scan priority classifier written
   here, with its own bit-by-bit matching logic (deliberately not
   Rule.matches — a shared bug in the mask arithmetic would otherwise hide
   from the comparison). The properties hold Tuple_space, Range_index, and
   the fast path with its upcall/install/evict machinery to byte-identical
   actions against that oracle on random rule sets and packet streams. *)

open Ppp_classify

(* --- the oracle: linear scan, bit-by-bit prefix comparison --- *)

let prefix_bits_equal a b plen =
  let rec go i =
    i >= plen
    || ((a lsr (31 - i)) land 1 = (b lsr (31 - i)) land 1 && go (i + 1))
  in
  go 0

let oracle_matches (r : Rule.t) (f : Ppp_net.Flowid.t) =
  prefix_bits_equal r.Rule.src f.Ppp_net.Flowid.src r.Rule.src_plen
  && prefix_bits_equal r.Rule.dst f.Ppp_net.Flowid.dst r.Rule.dst_plen
  && r.Rule.sport_lo <= f.Ppp_net.Flowid.sport
  && f.Ppp_net.Flowid.sport <= r.Rule.sport_hi
  && r.Rule.dport_lo <= f.Ppp_net.Flowid.dport
  && f.Ppp_net.Flowid.dport <= r.Rule.dport_hi
  && (r.Rule.proto = 0 || r.Rule.proto = f.Ppp_net.Flowid.proto)

(* First install wins ties: only a strictly higher priority replaces. *)
let oracle (rules : Rule.t array) f =
  let best = ref (-1) in
  Array.iteri
    (fun i r ->
      if oracle_matches r f then
        match !best with
        | -1 -> best := i
        | b -> if rules.(b).Rule.prio < r.Rule.prio then best := i)
    rules;
  if !best = -1 then Rule.no_match else rules.(!best).Rule.action

(* --- qcheck generators --- *)

let plen_gen = QCheck.Gen.oneofl [ 0; 8; 16; 24; 32 ]
let proto_gen = QCheck.Gen.oneofl [ 0; 6; 17 ]
let addr_gen = QCheck.Gen.(map (fun x -> x land 0xFFFFFFFF) (int_bound max_int))

let port_range_gen =
  QCheck.Gen.(
    oneof
      [
        return (0, 0xFFFF);
        map (fun p -> (p, p)) (int_bound 0xFFFF);
        map2
          (fun a b -> (min a b, max a b))
          (int_bound 0xFFFF) (int_bound 0xFFFF);
      ])

let rule_gen =
  QCheck.Gen.(
    map
      (fun ((prio, src, src_plen, dst), (dst_plen, sports, dports, proto, action)) ->
        {
          Rule.prio;
          src;
          src_plen;
          dst;
          dst_plen;
          sport_lo = fst sports;
          sport_hi = snd sports;
          dport_lo = fst dports;
          dport_hi = snd dports;
          proto;
          action;
        })
      (pair
         (quad (int_bound 7) addr_gen plen_gen addr_gen)
         (tup5 plen_gen port_range_gen port_range_gen proto_gen
            (int_range 0 255))))

let rules_gen = QCheck.Gen.(array_size (int_range 1 40) rule_gen)

(* Flow ids biased toward matching: half the time, sample inside a random
   rule's hypercube (wildcarded protocol becomes UDP); otherwise uniform. *)
let flowid_of_rule (r : Rule.t) st =
  let fill base plen st =
    let mask = Rule.mask_of_plen plen in
    base land mask
    lor (QCheck.Gen.generate1 ~rand:st QCheck.Gen.(int_bound 0xFFFFFFF)
         land (lnot mask land 0xFFFFFFFF))
  in
  {
    Ppp_net.Flowid.src = fill r.Rule.src r.Rule.src_plen st;
    dst = fill r.Rule.dst r.Rule.dst_plen st;
    sport =
      QCheck.Gen.generate1 ~rand:st
        QCheck.Gen.(int_range r.Rule.sport_lo r.Rule.sport_hi);
    dport =
      QCheck.Gen.generate1 ~rand:st
        QCheck.Gen.(int_range r.Rule.dport_lo r.Rule.dport_hi);
    proto = (if r.Rule.proto = 0 then 17 else r.Rule.proto);
  }

let uniform_flowid_gen =
  QCheck.Gen.(
    map
      (fun (src, dst, sport, dport, proto) ->
        { Ppp_net.Flowid.src; dst; sport; dport; proto })
      (tup5 addr_gen addr_gen (int_bound 0xFFFF) (int_bound 0xFFFF) proto_gen))

let scenario_gen =
  QCheck.Gen.(
    rules_gen >>= fun rules ->
    list_size (int_range 1 60)
      (fun st ->
        if bool st then
          flowid_of_rule rules.(int_bound (Array.length rules - 1) st) st
        else uniform_flowid_gen st)
    >>= fun flows -> return (rules, flows))

let scenario_arb =
  QCheck.make
    ~print:(fun (rules, flows) ->
      Printf.sprintf "%d rules, %d flows:\n%s\n---\n%s" (Array.length rules)
        (List.length flows)
        (String.concat "\n"
           (Array.to_list
              (Array.map (Format.asprintf "%a" Rule.pp) rules)))
        (String.concat "\n"
           (List.map (Format.asprintf "%a" Ppp_net.Flowid.pp) flows)))
    scenario_gen

let heap () = Ppp_simmem.Heap.create ~node:0

(* --- slow-path backends vs the oracle --- *)

let backend_prop kind =
  QCheck.Test.make ~count:400
    ~name:
      (Printf.sprintf "%s lookup = oracle (and quiet = instrumented)"
         (Classifier.kind_name kind))
    scenario_arb
    (fun (rules, flows) ->
      let c = Classifier.make ~heap:(heap ()) kind rules in
      let b = Ppp_hw.Trace.Builder.create () in
      List.for_all
        (fun f ->
          let expect = oracle rules f in
          Ppp_hw.Trace.Builder.clear b;
          Classifier.lookup c b ~fn:Ppp_hw.Fn.none f = expect
          && Classifier.lookup_quiet c f = expect)
        flows)

(* --- the fast path with upcalls vs the oracle --- *)

(* A deliberately tiny table (capacity 16, short probe window) so the
   random streams exercise install, re-hit, and eviction interleavings;
   every verdict and annotation must still equal the oracle's. *)
let fastpath_prop kind =
  QCheck.Test.make ~count:200
    ~name:
      (Printf.sprintf "fast path over %s = oracle under evictions"
         (Classifier.kind_name kind))
    scenario_arb
    (fun (rules, flows) ->
      let fp =
        Fastpath.create ~heap:(heap ()) ~table_entries:16 ~probe_limit:2
          ~backend:kind rules
      in
      let el = Fastpath.element fp in
      let ctx = Ppp_click.Ctx.create () in
      let pkt = Ppp_net.Packet.create 60 in
      let packets = ref 0 in
      let ok =
        List.for_all
          (fun (f : Ppp_net.Flowid.t) ->
            Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:f.Ppp_net.Flowid.src
              ~dst:f.Ppp_net.Flowid.dst ~sport:f.Ppp_net.Flowid.sport
              ~dport:f.Ppp_net.Flowid.dport ~wire_len:64;
            (* Traffic is UDP on the wire; hold the oracle to the same
               packet the element saw. *)
            let f = { f with Ppp_net.Flowid.proto = Ppp_net.Ipv4.proto_udp } in
            incr packets;
            let expect = oracle rules f in
            match el ctx pkt with
            | Ppp_click.Element.Drop -> expect = Rule.no_match
            | Ppp_click.Element.Forward ->
                expect >= 0 && Ppp_net.Packet.get8 pkt 0 = expect land 0xFF)
          flows
      in
      let table = Fastpath.table fp in
      ok
      && Flow_table.hits table + Flow_table.misses table = !packets
      && Fastpath.upcalls fp = Flow_table.misses table
      && Flow_table.installs table = Flow_table.misses table)

(* --- unit tests --- *)

let mk ?(prio = 1) ?(src = 0) ?(src_plen = 0) ?(dst = 0) ?(dst_plen = 0)
    ?(sports = (0, 0xFFFF)) ?(dports = (0, 0xFFFF)) ?(proto = 0) action =
  {
    Rule.prio;
    src;
    src_plen;
    dst;
    dst_plen;
    sport_lo = fst sports;
    sport_hi = snd sports;
    dport_lo = fst dports;
    dport_hi = snd dports;
    proto;
    action;
  }

let flow ?(src = 0x0A000001) ?(dst = 0x0A000002) ?(sport = 1000)
    ?(dport = 2000) ?(proto = 17) () =
  { Ppp_net.Flowid.src; dst; sport; dport; proto }

let both f () = List.iter f Classifier.all

let test_tie_break =
  both (fun kind ->
      (* Equal priority: the first-installed rule wins in every backend. *)
      let rules = [| mk ~prio:3 11; mk ~prio:3 22; mk ~prio:2 33 |] in
      let c = Classifier.make ~heap:(heap ()) kind rules in
      Alcotest.(check int)
        (Classifier.kind_name kind ^ " first install wins ties")
        11
        (Classifier.lookup_quiet c (flow ())))

let test_priority_beats_order =
  both (fun kind ->
      let rules = [| mk ~prio:1 11; mk ~prio:5 22 |] in
      let c = Classifier.make ~heap:(heap ()) kind rules in
      Alcotest.(check int)
        (Classifier.kind_name kind ^ " higher prio wins")
        22
        (Classifier.lookup_quiet c (flow ())))

let test_no_match =
  both (fun kind ->
      let rules = [| mk ~dst:0xC0A80000 ~dst_plen:16 9 |] in
      let c = Classifier.make ~heap:(heap ()) kind rules in
      Alcotest.(check int)
        (Classifier.kind_name kind ^ " no match")
        Rule.no_match
        (Classifier.lookup_quiet c (flow ~dst:0x0B000001 ())))

let test_field_specificity =
  both (fun kind ->
      (* Port ranges and protocol are honoured, not just prefixes. *)
      let rules =
        [|
          mk ~prio:5 ~dports:(80, 80) ~proto:6 1;
          mk ~prio:4 ~dports:(80, 443) 2;
          mk ~prio:0 3;
        |]
      in
      let c = Classifier.make ~heap:(heap ()) kind rules in
      let name = Classifier.kind_name kind in
      Alcotest.(check int)
        (name ^ " tcp:80")
        1
        (Classifier.lookup_quiet c (flow ~dport:80 ~proto:6 ()));
      Alcotest.(check int)
        (name ^ " udp:80 skips the tcp rule")
        2
        (Classifier.lookup_quiet c (flow ~dport:80 ~proto:17 ()));
      Alcotest.(check int)
        (name ^ " udp:8080 falls through")
        3
        (Classifier.lookup_quiet c (flow ~dport:8080 ())))

let test_rulegen_valid () =
  let rng = Ppp_util.Rng.create ~seed:99 in
  let rules = Rulegen.make ~rng ~n:200 in
  Alcotest.(check int) "count" 200 (Array.length rules);
  (* Every sampled flow id matches its source rule (the universe builder's
     contract), and the last rule catches everything. *)
  Array.iter
    (fun r ->
      let f = Rulegen.flowid_matching ~rng r in
      Alcotest.(check bool) "flowid_matching inside the rule" true
        (oracle_matches r f))
    rules;
  Alcotest.(check bool) "catch-all" true
    (oracle_matches rules.(199) (flow ~src:0xDEADBEEF ~dst:0x01020304 ()))

let test_range_index_structure () =
  let rng = Ppp_util.Rng.create ~seed:5 in
  let rules = Rulegen.make ~rng ~n:256 in
  let r = Range_index.create ~heap:(heap ()) rules in
  Alcotest.(check bool) "indexes something" true (Range_index.isets r >= 1);
  Alcotest.(check bool) "remainder is a strict subset" true
    (Range_index.remainder r < 256);
  Alcotest.(check bool) "bounded local search" true
    (Range_index.max_err r >= 0)

let test_tuple_space_structure () =
  let rng = Ppp_util.Rng.create ~seed:5 in
  let rules = Rulegen.make ~rng ~n:256 in
  let t = Tuple_space.create ~heap:(heap ()) rules in
  (* The generator only emits plens from {0,8,16,24,32}: at most 25 mask
     pairs, far fewer tables than rules — the point of TSS. *)
  Alcotest.(check bool) "tuple count collapses" true
    (Tuple_space.tuples t >= 1 && Tuple_space.tuples t <= 25)

let test_flow_table_capacity () =
  let h = heap () in
  Alcotest.(check int) "rounds to pow2" 128
    (Flow_table.capacity (Flow_table.create ~heap:h ~entries:100 ()));
  Alcotest.(check int) "min 16" 16
    (Flow_table.capacity (Flow_table.create ~heap:h ~entries:1 ()));
  Alcotest.check_raises "entries=0 rejected"
    (Invalid_argument "Flow_table.create") (fun () ->
      ignore (Flow_table.create ~heap:h ~entries:0 () : Flow_table.t))

let test_flow_table_install_find () =
  let t = Flow_table.create ~heap:(heap ()) ~entries:16 () in
  let b = Ppp_hw.Trace.Builder.create () in
  let f1 = flow () and f2 = flow ~sport:1001 () in
  Alcotest.(check int) "empty" Flow_table.absent (Flow_table.find_flowid t f1);
  Flow_table.install t b ~fn:Ppp_hw.Fn.none f1 7;
  Flow_table.install t b ~fn:Ppp_hw.Fn.none f2 Rule.no_match;
  Alcotest.(check int) "cached action" 7 (Flow_table.find_flowid t f1);
  Alcotest.(check int) "cached drop is not absent" Rule.no_match
    (Flow_table.find_flowid t f2);
  Flow_table.install t b ~fn:Ppp_hw.Fn.none f1 9;
  Alcotest.(check int) "refresh replaces" 9 (Flow_table.find_flowid t f1);
  Alcotest.(check int) "three installs" 3 (Flow_table.installs t);
  Alcotest.(check int) "no evictions yet" 0 (Flow_table.evictions t)

let test_flow_table_eviction () =
  (* Window = whole table: once the 16 slots fill, every further install
     evicts, and the most recent install is always findable. *)
  let t = Flow_table.create ~heap:(heap ()) ~entries:16 ~probe_limit:16 () in
  let b = Ppp_hw.Trace.Builder.create () in
  for i = 0 to 31 do
    Flow_table.install t b ~fn:Ppp_hw.Fn.none (flow ~sport:(100 + i) ()) i;
    Alcotest.(check int) "just-installed entry resident" i
      (Flow_table.find_flowid t (flow ~sport:(100 + i) ()))
  done;
  Alcotest.(check int) "installs" 32 (Flow_table.installs t);
  Alcotest.(check int) "evictions" 16 (Flow_table.evictions t)

let tests =
  [
    Alcotest.test_case "tie-break: install order" `Quick test_tie_break;
    Alcotest.test_case "priority beats order" `Quick test_priority_beats_order;
    Alcotest.test_case "no-match action" `Quick test_no_match;
    Alcotest.test_case "ports and protocol" `Quick test_field_specificity;
    Alcotest.test_case "rulegen validity" `Quick test_rulegen_valid;
    Alcotest.test_case "range index structure" `Quick
      test_range_index_structure;
    Alcotest.test_case "tuple space structure" `Quick
      test_tuple_space_structure;
    Alcotest.test_case "flow table capacity" `Quick test_flow_table_capacity;
    Alcotest.test_case "flow table install/find" `Quick
      test_flow_table_install_find;
    Alcotest.test_case "flow table eviction" `Quick test_flow_table_eviction;
    QCheck_alcotest.to_alcotest (backend_prop Classifier.Tss);
    QCheck_alcotest.to_alcotest (backend_prop Classifier.Range);
    QCheck_alcotest.to_alcotest (fastpath_prop Classifier.Tss);
    QCheck_alcotest.to_alcotest (fastpath_prop Classifier.Range);
  ]
