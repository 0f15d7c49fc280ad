(* Tests for the extension wave: histogram/latency, binary trie, DPI, pcap,
   multiplexing, the cached lookup, utility elements. *)

let heap () = Ppp_simmem.Heap.create ~node:0
let fn = Ppp_hw.Fn.none

(* --- Histogram --- *)

let test_histogram_basics () =
  let h = Ppp_util.Histogram.create () in
  List.iter (Ppp_util.Histogram.record h) [ 1; 2; 3; 4; 100 ];
  Alcotest.(check int) "count" 5 (Ppp_util.Histogram.count h);
  Alcotest.(check int) "total" 110 (Ppp_util.Histogram.total h);
  Alcotest.(check (float 1e-9)) "mean" 22.0 (Ppp_util.Histogram.mean h)

let test_histogram_small_values_exact () =
  let h = Ppp_util.Histogram.create () in
  for v = 0 to 63 do
    Ppp_util.Histogram.record h v
  done;
  Alcotest.(check int) "p50 exact for small values" 31
    (Ppp_util.Histogram.percentile h 50.0);
  Alcotest.(check int) "p100" 63 (Ppp_util.Histogram.percentile h 100.0)

let test_histogram_percentile_accuracy () =
  let h = Ppp_util.Histogram.create () in
  for _ = 1 to 90 do
    Ppp_util.Histogram.record h 1000
  done;
  for _ = 1 to 10 do
    Ppp_util.Histogram.record h 100000
  done;
  let p50 = Ppp_util.Histogram.percentile h 50.0 in
  let p99 = Ppp_util.Histogram.percentile h 99.0 in
  Alcotest.(check bool) "p50 near 1000" true (p50 >= 1000 && p50 < 1100);
  Alcotest.(check bool) "p99 near 100000" true (p99 >= 100000 && p99 < 107000)

let test_histogram_empty () =
  let h = Ppp_util.Histogram.create () in
  Alcotest.(check int) "p99 of empty" 0 (Ppp_util.Histogram.percentile h 99.0);
  Alcotest.(check int) "max of empty" 0 (Ppp_util.Histogram.max_value h)

let prop_histogram_percentile_bounds =
  QCheck.Test.make ~count:100 ~name:"histogram percentile within 5% of max sample"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 1_000_000))
    (fun samples ->
      let h = Ppp_util.Histogram.create () in
      List.iter (Ppp_util.Histogram.record h) samples;
      let mx = List.fold_left max 0 samples in
      let p100 = Ppp_util.Histogram.percentile h 100.0 in
      p100 >= mx && float_of_int p100 <= (float_of_int mx *. 1.07) +. 64.0)

(* --- Engine latency --- *)

let test_engine_latency_recorded () =
  let hier = Ppp_hw.Machine.build Ppp_hw.Machine.tiny in
  let b = Ppp_hw.Trace.Builder.create () in
  let source _now =
    Ppp_hw.Trace.Builder.clear b;
    Ppp_hw.Trace.Builder.compute b ~fn 1000;
    Ppp_hw.Engine.Packet (Ppp_hw.Trace.Builder.finish b)
  in
  match
    Ppp_hw.Engine.run hier
      ~flows:[ { Ppp_hw.Engine.core = 0; label = "l"; source } ]
      ~warmup_cycles:10_000 ~measure_cycles:100_000
  with
  | [ r ] ->
      let h = r.Ppp_hw.Engine.latency in
      Alcotest.(check bool) "latency samples" true (Ppp_util.Histogram.count h > 0);
      (* Each packet is exactly 600 cycles of compute. *)
      let p50 = Ppp_util.Histogram.percentile h 50.0 in
      Alcotest.(check bool) "p50 near 600 cycles" true (p50 >= 590 && p50 <= 640)
  | _ -> Alcotest.fail "one result"

(* --- Binary trie --- *)

let ip = Ppp_net.Ipv4.addr_of_string

let test_binary_trie_lpm () =
  let t = Binary_trie.create ~heap:(heap ()) ~default_hop:0 () in
  Binary_trie.add_route t ~prefix:(ip "10.0.0.0") ~plen:8 ~hop:1;
  Binary_trie.add_route t ~prefix:(ip "10.1.0.0") ~plen:16 ~hop:2;
  Binary_trie.add_route t ~prefix:(ip "10.1.2.128") ~plen:25 ~hop:4;
  Alcotest.(check int) "/8" 1 (Binary_trie.lookup_quiet t (ip "10.9.9.9"));
  Alcotest.(check int) "/16" 2 (Binary_trie.lookup_quiet t (ip "10.1.9.9"));
  Alcotest.(check int) "/25" 4 (Binary_trie.lookup_quiet t (ip "10.1.2.200"));
  Alcotest.(check int) "default" 0 (Binary_trie.lookup_quiet t (ip "11.0.0.1"))

let prop_binary_trie_matches_radix =
  QCheck.Test.make ~count:40 ~name:"binary trie agrees with multibit radix trie"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30)
           (triple (int_bound 0xFFFFFFFF) (int_range 8 32) (int_range 1 65535)))
        (list_of_size Gen.(int_range 1 40) (int_bound 0xFFFFFFFF)))
    (fun (routes, dsts) ->
      let h = heap () in
      let bt = Binary_trie.create ~heap:h ~max_nodes:8192 ~default_hop:0 () in
      let rt = Ppp_apps.Radix_trie.create ~heap:h ~max_nodes:4096 ~default_hop:0 () in
      List.iter
        (fun (prefix, plen, hop) ->
          Binary_trie.add_route bt ~prefix ~plen ~hop;
          Ppp_apps.Radix_trie.add_route rt ~prefix ~plen ~hop)
        routes;
      (* A relocated view answers from the same shared entries. *)
      let view = Ppp_apps.Radix_trie.relocate ~heap:(heap ()) rt in
      List.for_all
        (fun dst ->
          let want = Binary_trie.lookup_quiet bt dst in
          want = Ppp_apps.Radix_trie.lookup_quiet rt dst
          && want = Ppp_apps.Radix_trie.lookup_quiet view dst)
        dsts)

let test_binary_trie_more_refs_than_radix () =
  let h = heap () in
  let bt = Binary_trie.create ~heap:h ~default_hop:0 () in
  let rt = Ppp_apps.Radix_trie.create ~heap:h ~default_hop:0 () in
  Binary_trie.add_route bt ~prefix:(ip "10.1.2.0") ~plen:24 ~hop:3;
  Ppp_apps.Radix_trie.add_route rt ~prefix:(ip "10.1.2.0") ~plen:24 ~hop:3;
  let refs lookup =
    let b = Ppp_hw.Trace.Builder.create () in
    ignore (lookup b (ip "10.1.2.9") : int);
    Ppp_hw.Trace.Builder.length b
  in
  let bt_refs = refs (fun b dst -> Binary_trie.lookup bt b ~fn dst) in
  let rt_refs = refs (fun b dst -> Ppp_apps.Radix_trie.lookup rt b ~fn dst) in
  Alcotest.(check bool)
    (Printf.sprintf "binary (%d) walks more nodes than multibit (%d)" bt_refs rt_refs)
    true (bt_refs > rt_refs)

(* --- DPI --- *)

let test_dpi_finds_patterns () =
  let dpi = Ppp_apps.Dpi.create ~heap:(heap ()) [ "he"; "she"; "his"; "hers" ] in
  let data = Bytes.of_string "ushers" in
  let matches = Ppp_apps.Dpi.scan_quiet dpi data ~pos:0 ~len:6 in
  (* Classic Aho-Corasick example: "she" at 3, "he" at 3, "hers" at 5. *)
  let sorted = List.sort compare matches in
  Alcotest.(check (list (pair int int))) "matches"
    [ (0, 3); (1, 3); (3, 5) ]
    sorted

let test_dpi_overlapping_and_repeats () =
  let dpi = Ppp_apps.Dpi.create ~heap:(heap ()) [ "aa" ] in
  let data = Bytes.of_string "aaaa" in
  Alcotest.(check int) "overlaps all counted" 3
    (List.length (Ppp_apps.Dpi.scan_quiet dpi data ~pos:0 ~len:4))

let test_dpi_no_match () =
  let dpi = Ppp_apps.Dpi.create ~heap:(heap ()) [ "needle" ] in
  let data = Bytes.of_string "haystack without it" in
  Alcotest.(check (list (pair int int))) "empty" []
    (Ppp_apps.Dpi.scan_quiet dpi data ~pos:0 ~len:(Bytes.length data))

let test_dpi_instrumented_matches_quiet () =
  let dpi = Ppp_apps.Dpi.create ~heap:(heap ()) [ "ab"; "bc" ] in
  let data = Bytes.of_string "zababcz" in
  let b = Ppp_hw.Trace.Builder.create () in
  Alcotest.(check (list (pair int int))) "same results"
    (Ppp_apps.Dpi.scan_quiet dpi data ~pos:0 ~len:7)
    (Ppp_apps.Dpi.scan dpi b ~fn data ~pos:0 ~len:7);
  (* One transition read per byte plus output reads. *)
  Alcotest.(check bool) "one ref per byte at least" true
    (Ppp_hw.Trace.Builder.length b >= 7)

let test_dpi_element_drops () =
  let dpi = Ppp_apps.Dpi.create ~heap:(heap ()) [ "EVIL" ] in
  let el = Ppp_apps.Dpi.element dpi in
  let ctx = Ppp_click.Ctx.create () in
  let mk payload =
    let pkt = Ppp_net.Packet.create 256 in
    Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:1 ~dst:2 ~sport:3 ~dport:4 ~wire_len:128;
    let pos = Ppp_net.Transport.payload_offset pkt in
    Ppp_net.Packet.blit_string payload pkt pos;
    pkt
  in
  Alcotest.(check bool) "clean forwarded" true
    (el ctx (mk "nothing to see") = Ppp_click.Element.Forward);
  Alcotest.(check bool) "malicious dropped" true
    (el ctx (mk "xxEVILxx") = Ppp_click.Element.Drop);
  Alcotest.(check bool) "matches counted" true (Ppp_apps.Dpi.matches_seen dpi >= 1)

let naive_matches patterns data =
  let n = Bytes.length data in
  let acc = ref [] in
  List.iteri
    (fun pi p ->
      let pl = String.length p in
      for i = 0 to n - pl do
        if Bytes.sub_string data i pl = p then acc := (pi, i + pl - 1) :: !acc
      done)
    patterns;
  List.sort compare !acc

let prop_dpi_matches_naive =
  QCheck.Test.make ~count:60 ~name:"DPI equals naive multi-pattern search"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 5)
           (string_gen_of_size Gen.(int_range 1 4) (Gen.char_range 'a' 'd')))
        (string_gen_of_size Gen.(int_range 0 60) (Gen.char_range 'a' 'd')))
    (fun (patterns, text) ->
      let dpi = Ppp_apps.Dpi.create ~heap:(heap ()) patterns in
      let data = Bytes.of_string text in
      let got =
        List.sort compare
          (Ppp_apps.Dpi.scan_quiet dpi data ~pos:0 ~len:(Bytes.length data))
      in
      (* Duplicate patterns share an automaton end state but keep distinct
         bitmask bits; naive search also reports both. *)
      got = naive_matches patterns data)

(* --- Pcap --- *)

let mk_pkt len seed =
  let pkt = Ppp_net.Packet.create ~cap:(max len 60) len in
  Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:seed ~dst:(seed + 1) ~sport:7 ~dport:8
    ~wire_len:len;
  pkt

let test_pcap_roundtrip () =
  let cap = Ppp_traffic.Pcap.create () in
  Ppp_traffic.Pcap.append cap ~ts_usec:1000 (mk_pkt 64 1);
  Ppp_traffic.Pcap.append cap ~ts_usec:2000 (mk_pkt 128 2);
  Ppp_traffic.Pcap.append cap (mk_pkt 256 3);
  let bytes = Ppp_traffic.Pcap.to_bytes cap in
  match Ppp_traffic.Pcap.of_bytes bytes with
  | Error e -> Alcotest.fail e
  | Ok cap' ->
      Alcotest.(check int) "count" 3 (Ppp_traffic.Pcap.length cap');
      List.iter2
        (fun (a : Ppp_traffic.Pcap.record) (b : Ppp_traffic.Pcap.record) ->
          Alcotest.(check int) "ts" a.Ppp_traffic.Pcap.ts_usec b.Ppp_traffic.Pcap.ts_usec;
          Alcotest.(check int) "len" a.Ppp_traffic.Pcap.pkt.Ppp_net.Packet.len
            b.Ppp_traffic.Pcap.pkt.Ppp_net.Packet.len;
          Alcotest.(check bytes) "data"
            (Bytes.sub a.Ppp_traffic.Pcap.pkt.Ppp_net.Packet.data 0
               a.Ppp_traffic.Pcap.pkt.Ppp_net.Packet.len)
            (Bytes.sub b.Ppp_traffic.Pcap.pkt.Ppp_net.Packet.data 0
               b.Ppp_traffic.Pcap.pkt.Ppp_net.Packet.len))
        (Ppp_traffic.Pcap.records cap)
        (Ppp_traffic.Pcap.records cap')

let test_pcap_file_io () =
  let cap = Ppp_traffic.Pcap.create () in
  Ppp_traffic.Pcap.append cap (mk_pkt 64 9);
  let path = Filename.temp_file "ppp" ".pcap" in
  Ppp_traffic.Pcap.save cap path;
  (match Ppp_traffic.Pcap.load path with
  | Ok cap' -> Alcotest.(check int) "loaded" 1 (Ppp_traffic.Pcap.length cap')
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_pcap_rejects_garbage () =
  match Ppp_traffic.Pcap.of_bytes (Bytes.make 30 'x') with
  | Ok _ -> Alcotest.fail "should reject"
  | Error _ -> ()

let test_pcap_replay_cycles () =
  let cap = Ppp_traffic.Pcap.create () in
  Ppp_traffic.Pcap.append cap (mk_pkt 64 1);
  Ppp_traffic.Pcap.append cap (mk_pkt 96 2);
  let src = Ppp_traffic.Pcap.replay cap in
  let p = Ppp_net.Packet.create ~cap:2048 60 in
  let fill () =
    Alcotest.(check bool) "filled" true
      (Ppp_traffic.Source.fill src p = Ppp_traffic.Source.Filled)
  in
  fill ();
  Alcotest.(check int) "first" 64 p.Ppp_net.Packet.len;
  fill ();
  Alcotest.(check int) "second" 96 p.Ppp_net.Packet.len;
  fill ();
  Alcotest.(check int) "loops" 64 p.Ppp_net.Packet.len;
  Alcotest.(check int) "packets counted" 3 (Ppp_traffic.Source.packets src)

(* --- Multiplex --- *)

let test_multiplex_round_robin_order () =
  let b = Ppp_hw.Trace.Builder.create () in
  let src tag _now =
    Ppp_hw.Trace.Builder.clear b;
    Ppp_hw.Trace.Builder.compute b ~fn tag;
    Ppp_hw.Engine.Packet (Ppp_hw.Trace.Builder.finish b)
  in
  let mux = Ppp_click.Multiplex.round_robin [ src 11; src 22 ] in
  let payload_of item =
    match item with
    | Ppp_hw.Engine.Packet t | Ppp_hw.Engine.Idle t
    | Ppp_hw.Engine.Reordered t ->
        Ppp_hw.Trace.payload t 0
  in
  Alcotest.(check (list int)) "alternates" [ 11; 22; 11; 22 ]
    (List.map (fun i -> payload_of (mux i)) [ 0; 1; 2; 3 ])

let test_multiplex_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Multiplex.round_robin: empty")
    (fun () ->
      ignore (Ppp_click.Multiplex.round_robin [] : Ppp_hw.Engine.source))

(* --- DPI app kind integration --- *)

let test_dpi_app_kind () =
  Alcotest.(check bool) "of_name" true (Ppp_apps.App.of_name "DPI" = Some Ppp_apps.App.DPI);
  let b =
    Ppp_apps.App.build Ppp_apps.App.DPI ~heap:(heap ())
      ~rng:(Ppp_util.Rng.create ~seed:3) ~scale:128
  in
  Alcotest.(check bool) "has elements" true (List.length b.Ppp_apps.App.elements >= 5);
  let r = Ppp_core.Runner.solo ~params:Ppp_core.Runner.Params.quick Ppp_apps.App.DPI in
  Alcotest.(check bool) "runs" true (r.Ppp_hw.Engine.throughput_pps > 0.0)

(* --- multiflow experiment --- *)

let test_multiflow_escalation () =
  let params =
    {
      Ppp_core.Runner.Params.default with
      Ppp_core.Runner.warmup_cycles = 400_000;
      measure_cycles = 1_200_000;
    }
  in
  let data = Ppp_experiments.Multiflow_exp.measure ~params () in
  Alcotest.(check bool) "rule refs escalate when sharing the core" true
    (data.Ppp_experiments.Multiflow_exp.multiplexed
       .Ppp_experiments.Multiflow_exp.fw_rule_l3_refs_per_fw_packet
    > data.Ppp_experiments.Multiflow_exp.separate
        .Ppp_experiments.Multiflow_exp.fw_rule_l3_refs_per_fw_packet
      *. 5.0)

let tests =
  [
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram small exact" `Quick test_histogram_small_values_exact;
    Alcotest.test_case "histogram percentile accuracy" `Quick test_histogram_percentile_accuracy;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    QCheck_alcotest.to_alcotest prop_histogram_percentile_bounds;
    Alcotest.test_case "engine latency recorded" `Quick test_engine_latency_recorded;
    Alcotest.test_case "binary trie LPM" `Quick test_binary_trie_lpm;
    QCheck_alcotest.to_alcotest prop_binary_trie_matches_radix;
    Alcotest.test_case "binary trie walks more" `Quick test_binary_trie_more_refs_than_radix;
    Alcotest.test_case "DPI ushers example" `Quick test_dpi_finds_patterns;
    Alcotest.test_case "DPI overlaps" `Quick test_dpi_overlapping_and_repeats;
    Alcotest.test_case "DPI no match" `Quick test_dpi_no_match;
    Alcotest.test_case "DPI instrumented = quiet" `Quick test_dpi_instrumented_matches_quiet;
    Alcotest.test_case "DPI element drops" `Quick test_dpi_element_drops;
    QCheck_alcotest.to_alcotest prop_dpi_matches_naive;
    Alcotest.test_case "pcap roundtrip" `Quick test_pcap_roundtrip;
    Alcotest.test_case "pcap file io" `Quick test_pcap_file_io;
    Alcotest.test_case "pcap rejects garbage" `Quick test_pcap_rejects_garbage;
    Alcotest.test_case "pcap replay cycles" `Quick test_pcap_replay_cycles;
    Alcotest.test_case "multiplex round robin" `Quick test_multiplex_round_robin_order;
    Alcotest.test_case "multiplex rejects empty" `Quick test_multiplex_rejects_empty;
    Alcotest.test_case "DPI app kind" `Quick test_dpi_app_kind;
    Alcotest.test_case "multiflow escalation" `Slow test_multiflow_escalation;
  ]

(* --- Flow cache --- *)

module Table = Ppp_classify.Flow_table

(* The cached lookup over a flow table, and the plain RadixIPLookup it
   must agree with, over the same trie and next-hop table. *)
let cached_and_plain h trie =
  let hop_table = Ppp_simmem.Iarray.init h ~elem_bytes:16 64 (fun i -> 3 * i) in
  let table = Table.create ~heap:h ~entries:1024 () in
  ( table,
    Ppp_experiments.Flowcache_exp.lookup_element table ~trie ~hop_table,
    Ppp_apps.Ip_elements.radix_ip_lookup ~hop_table trie )

let test_flow_cache_fast_path () =
  let h = heap () in
  let pool = Ppp_apps.Route_pool.make ~seed:5 ~n16:8 ~routes:64 in
  let trie =
    Ppp_apps.Radix_trie.create ~heap:h
      ~max_nodes:(Ppp_apps.Route_pool.suggested_max_nodes ~n16:8 ~routes:64)
      ~default_hop:0 ()
  in
  Ppp_apps.Route_pool.install pool trie;
  let table, el, plain = cached_and_plain h trie in
  let ctx = Ppp_click.Ctx.create () in
  let pkt = Ppp_net.Packet.create 128 in
  let fill () =
    Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:0x0A000001
      ~dst:(Ppp_apps.Route_pool.dst_of_flow pool 3)
      ~sport:1000 ~dport:2000 ~wire_len:64
  in
  (* First packet misses and fills; second hits; both must forward with the
     same egress annotation as the plain lookup element. *)
  fill ();
  Alcotest.(check bool) "first forwards" true
    (el ctx pkt = Ppp_click.Element.Forward);
  let port1 = Ppp_net.Packet.get8 pkt 0 in
  Alcotest.(check int) "miss recorded" 1 (Table.misses table);
  fill ();
  Alcotest.(check bool) "second forwards" true
    (el ctx pkt = Ppp_click.Element.Forward);
  Alcotest.(check int) "hit recorded" 1 (Table.hits table);
  Alcotest.(check int) "same egress" port1 (Ppp_net.Packet.get8 pkt 0);
  fill ();
  Alcotest.(check bool) "plain forwards" true
    (plain ctx pkt = Ppp_click.Element.Forward);
  Alcotest.(check int) "agrees with RadixIPLookup"
    (Ppp_net.Packet.get8 pkt 0) port1

let test_flow_cache_unrouted_drops () =
  let h = heap () in
  let trie = Ppp_apps.Radix_trie.create ~heap:h ~default_hop:0 () in
  let table, el, _ = cached_and_plain h trie in
  let ctx = Ppp_click.Ctx.create () in
  let pkt = Ppp_net.Packet.create 128 in
  Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:1 ~dst:2 ~sport:3 ~dport:4 ~wire_len:64;
  Alcotest.(check bool) "unrouted dropped" true
    (el ctx pkt = Ppp_click.Element.Drop);
  (* Negative results are not cached. *)
  Alcotest.(check int) "no fill on drop" 0 (Table.installs table)

(* --- predict_mix --- *)

let test_predict_mix_consistency () =
  let params = Ppp_core.Runner.Params.quick in
  let levels = [ { Ppp_apps.App.reads = 8; instrs = 1000 } ] in
  let p =
    Ppp_core.Predictor.build ~params ~levels ~targets:[ Ppp_apps.App.FW ] ()
  in
  match Ppp_core.Predictor.predict_mix p [ Ppp_apps.App.FW; Ppp_apps.App.FW ] with
  | [ (_, d1, t1); (_, d2, t2) ] ->
      Alcotest.(check (float 1e-9)) "symmetric drops" d1 d2;
      Alcotest.(check (float 1e-6)) "symmetric throughputs" t1 t2;
      Alcotest.(check (float 1e-9)) "matches pairwise API"
        (Ppp_core.Predictor.predict_drop p ~target:Ppp_apps.App.FW
           ~competitors:[ Ppp_apps.App.FW ])
        d1
  | _ -> Alcotest.fail "two predictions"

let tests =
  tests
  @ [
      Alcotest.test_case "flow cache fast path" `Quick test_flow_cache_fast_path;
      Alcotest.test_case "flow cache unrouted" `Quick test_flow_cache_unrouted_drops;
      Alcotest.test_case "predict_mix consistency" `Quick test_predict_mix_consistency;
    ]

(* --- small-surface extension checks --- *)

let test_pcap_empty_replay_rejected () =
  let cap = Ppp_traffic.Pcap.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Pcap.replay: empty capture")
    (fun () -> ignore (Ppp_traffic.Pcap.replay cap : Ppp_traffic.Source.t))

let test_pcap_no_loop_exhausts () =
  let cap = Ppp_traffic.Pcap.create () in
  Ppp_traffic.Pcap.append cap (mk_pkt 64 1);
  let src = Ppp_traffic.Pcap.replay ~loop:false cap in
  let p = Ppp_net.Packet.create ~cap:2048 60 in
  Alcotest.(check bool) "first fill ok" true
    (Ppp_traffic.Source.fill src p = Ppp_traffic.Source.Filled);
  (* Typed end-of-capture instead of an exception, and it stays exhausted. *)
  Alcotest.(check bool) "second fill exhausted" true
    (Ppp_traffic.Source.fill src p = Ppp_traffic.Source.Exhausted);
  Alcotest.(check bool) "sticky" true
    (Ppp_traffic.Source.fill src p = Ppp_traffic.Source.Exhausted)

let test_dpi_rejects_bad_input () =
  Alcotest.check_raises "empty patterns" (Invalid_argument "Dpi.create: no patterns")
    (fun () -> ignore (Ppp_apps.Dpi.create ~heap:(heap ()) [] : Ppp_apps.Dpi.t));
  Alcotest.check_raises "empty pattern" (Invalid_argument "Dpi.create: empty pattern")
    (fun () -> ignore (Ppp_apps.Dpi.create ~heap:(heap ()) [ "ok"; "" ] : Ppp_apps.Dpi.t))

let test_binary_trie_rejects_bad_input () =
  let t = Binary_trie.create ~heap:(heap ()) ~default_hop:0 () in
  Alcotest.check_raises "plen" (Invalid_argument "Binary_trie.add_route: plen")
    (fun () -> Binary_trie.add_route t ~prefix:0 ~plen:40 ~hop:1);
  Alcotest.check_raises "hop" (Invalid_argument "Binary_trie.add_route: hop")
    (fun () -> Binary_trie.add_route t ~prefix:0 ~plen:8 ~hop:0)

let test_mlp_reduces_miss_latency () =
  (* Two back-to-back misses: with mlp=4 the second's exposed latency is
     smaller. *)
  let topo = Ppp_hw.Topology.create ~sockets:1 ~cores_per_socket:1 in
  let geo l1 l2 l3 =
    {
      Ppp_hw.Hierarchy.l1 = { Ppp_hw.Cache.size_bytes = l1; ways = 2; line_bytes = 64 };
      l2 = { Ppp_hw.Cache.size_bytes = l2; ways = 4; line_bytes = 64 };
      l3 = { Ppp_hw.Cache.size_bytes = l3; ways = 8; line_bytes = 64 };
    }
  in
  let run mlp =
    let costs = { Ppp_hw.Costs.default with Ppp_hw.Costs.mlp } in
    let h = Ppp_hw.Hierarchy.create topo costs (geo 1024 4096 65536) in
    ignore (Ppp_hw.Hierarchy.access h ~core:0 ~write:false ~fn ~addr:0x1000 ~now:0 : int);
    Ppp_hw.Hierarchy.access h ~core:0 ~write:false ~fn ~addr:0x9000 ~now:200
  in
  Alcotest.(check bool) "mlp shortens 2nd miss" true (run 4 < run 1)

let tests =
  tests
  @ [
      Alcotest.test_case "pcap empty replay" `Quick test_pcap_empty_replay_rejected;
      Alcotest.test_case "pcap no-loop exhausts" `Quick test_pcap_no_loop_exhausts;
      Alcotest.test_case "dpi input validation" `Quick test_dpi_rejects_bad_input;
      Alcotest.test_case "binary trie validation" `Quick test_binary_trie_rejects_bad_input;
      Alcotest.test_case "mlp shortens misses" `Quick test_mlp_reduces_miss_latency;
    ]
