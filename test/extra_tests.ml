(* Second-wave coverage: element behaviour inside flows, failure paths, and
   cross-module integration details not covered by the per-module suites. *)

let heap () = Ppp_simmem.Heap.create ~node:0
let fn = Ppp_hw.Fn.none

(* --- VPN element really encrypts (and the result is decryptable) --- *)

let test_vpn_element_encrypts () =
  let h = heap () in
  let key = "0123456789abcdef" in
  let vpn = Ppp_apps.More_elements.vpn_encrypt ~heap:h ~key in
  let ctx = Ppp_click.Ctx.create () in
  let pkt = Ppp_net.Packet.create 256 in
  Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:1 ~dst:2 ~sport:3 ~dport:4
    ~wire_len:128;
  let pos = Ppp_net.Transport.payload_offset pkt in
  let len = 128 - pos in
  Ppp_traffic.Gen.seeded_payload ~seed:5 pkt ~pos ~len;
  let original = Ppp_net.Packet.sub_string pkt ~pos ~len in
  (match vpn ctx pkt with
  | Ppp_click.Element.Forward -> ()
  | Ppp_click.Element.Drop -> Alcotest.fail "should forward");
  let encrypted = Ppp_net.Packet.sub_string pkt ~pos ~len in
  Alcotest.(check bool) "payload changed" true (encrypted <> original);
  (* CTR is involutive: decrypt with the same keystream (counter 0). *)
  let aes = Ppp_apps.Aes.expand_key key in
  Ppp_apps.Aes.ctr_transform aes ~nonce:"\x00\x01\x02\x03\x04\x05\x06\x07"
    ~counter:0 pkt.Ppp_net.Packet.data ~pos ~len;
  Alcotest.(check string) "decrypts back" original
    (Ppp_net.Packet.sub_string pkt ~pos ~len)

(* --- RE element shrinks redundant packets in place --- *)

let test_re_element_shrinks_packets () =
  let h = heap () in
  let re = Ppp_apps.Re.create ~heap:h ~store_bytes:65536 ~table_entries:4096 () in
  let el = Ppp_apps.More_elements.re_encode re in
  let ctx = Ppp_click.Ctx.create () in
  let send () =
    let pkt = Ppp_net.Packet.create 1024 in
    Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:1 ~dst:2 ~sport:3 ~dport:4
      ~wire_len:512;
    let pos = Ppp_net.Transport.payload_offset pkt in
    Ppp_traffic.Gen.seeded_payload ~seed:99 pkt ~pos ~len:(512 - pos);
    ignore (el ctx pkt);
    pkt.Ppp_net.Packet.len
  in
  let first = send () in
  let second = send () in
  (* First sighting: no matches; escaping may grow it slightly. *)
  Alcotest.(check bool) "first pass roughly unchanged" true
    (first >= 500 && first <= 540);
  Alcotest.(check bool) "second identical payload shrinks" true (second < 200);
  (* The shrunken packet still has a consistent IP total length. *)
  ()

(* --- Staged flow drop path --- *)

let test_staged_drop_path () =
  let dropper = (fun _ _ -> Ppp_click.Element.Drop) in
  let staged =
    Ppp_click.Staged.create ~heap:(heap ())
      ~source:(Ppp_traffic.Source.constant ())
      ~stages:[ []; [ dropper ] ] ()
  in
  let sources = Ppp_click.Staged.sources staged in
  ignore (sources.(0) 0);
  (match sources.(1) 1 with
  | Ppp_hw.Engine.Idle _ -> ()
  | Ppp_hw.Engine.Packet _ | Ppp_hw.Engine.Reordered _ ->
      Alcotest.fail "dropped packet must not count");
  Alcotest.(check int) "drop counted" 1 (Ppp_click.Staged.dropped staged);
  Alcotest.(check int) "nothing forwarded" 0 (Ppp_click.Staged.forwarded staged)

(* --- cross-socket isolation at the runner level --- *)

let test_cross_socket_flows_isolated () =
  (* Two MON flows on different sockets with local data barely affect each
     other (compare against same-socket placement). *)
  let params = Ppp_core.Runner.Params.quick in
  let same =
    Ppp_core.Runner.run ~params
      [
        { Ppp_core.Runner.kind = Ppp_apps.App.MON; core = 0; data_node = 0 };
        { Ppp_core.Runner.kind = Ppp_apps.App.MON; core = 1; data_node = 0 };
      ]
  in
  let cross =
    Ppp_core.Runner.run ~params
      [
        { Ppp_core.Runner.kind = Ppp_apps.App.MON; core = 0; data_node = 0 };
        { Ppp_core.Runner.kind = Ppp_apps.App.MON; core = 2; data_node = 1 };
      ]
  in
  let pps results = (List.hd results).Ppp_hw.Engine.throughput_pps in
  Alcotest.(check bool) "cross-socket placement no slower" true
    (pps cross >= pps same *. 0.98)

(* --- failure paths of RE / store / tables --- *)

let test_re_decode_malformed () =
  let h = heap () in
  let re = Ppp_apps.Re.create ~heap:h ~store_bytes:4096 ~table_entries:1024 () in
  let b = Ppp_hw.Trace.Builder.create () in
  let out = Bytes.make 64 '\x00' in
  (* A token referencing content the store never held. *)
  let bad = Bytes.of_string "\xFE\x01\x00\x00\x00\x00\x40\x00\x20" in
  Alcotest.check_raises "evicted reference"
    (Failure "Re.decode: reference to evicted content") (fun () ->
      ignore (Ppp_apps.Re.decode re b ~fn bad ~pos:0 ~len:9 ~out));
  let truncated = Bytes.of_string "\xFE" in
  Alcotest.check_raises "truncated escape" (Failure "Re.decode: truncated escape")
    (fun () -> ignore (Ppp_apps.Re.decode re b ~fn truncated ~pos:0 ~len:1 ~out))

let test_store_stale_read_raises () =
  let h = heap () in
  let ps = Ppp_apps.Packet_store.create ~heap:h ~capacity:64 in
  let b = Ppp_hw.Trace.Builder.create () in
  let out = Bytes.make 16 '\x00' in
  Alcotest.check_raises "stale" (Invalid_argument "Packet_store.read: stale")
    (fun () -> Ppp_apps.Packet_store.read ps b ~fn ~off:0 ~len:16 out ~dst:0)

let test_trie_pool_exhaustion () =
  let t =
    Ppp_apps.Radix_trie.create ~heap:(heap ()) ~max_nodes:1 ~default_hop:0 ()
  in
  (* First /24 allocates the single node; a /24 under a different /16
     needs a second one. *)
  Ppp_apps.Radix_trie.add_route t ~prefix:(0x0A010200) ~plen:24 ~hop:1;
  Alcotest.check_raises "pool exhausted" (Failure "Radix_trie: node pool exhausted")
    (fun () ->
      Ppp_apps.Radix_trie.add_route t ~prefix:(0x0B010200) ~plen:24 ~hop:2)

(* --- misc small-surface checks --- *)

let test_ipv4_invalid_cases () =
  let pkt = Ppp_net.Packet.create 128 in
  Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:1 ~dst:2 ~sport:3 ~dport:4 ~wire_len:96;
  Alcotest.(check bool) "valid baseline" true (Ppp_net.Ipv4.valid pkt);
  (* Wrong version nibble. *)
  Ppp_net.Packet.set8 pkt Ppp_net.Ipv4.header_offset 0x55;
  Alcotest.(check bool) "bad version" false (Ppp_net.Ipv4.valid pkt);
  Ppp_net.Packet.set8 pkt Ppp_net.Ipv4.header_offset 0x45;
  (* Truncated wire length vs IP total length. *)
  Ppp_net.Packet.resize pkt 80;
  Alcotest.(check bool) "length mismatch" false (Ppp_net.Ipv4.valid pkt)

let test_machine_helpers () =
  let c = Ppp_hw.Machine.scaled in
  Alcotest.(check int) "l3 bytes" (1536 * 1024) (Ppp_hw.Machine.l3_bytes c);
  Alcotest.(check int) "line" 64 (Ppp_hw.Machine.line_bytes c);
  Alcotest.(check int) "cps" 6 (Ppp_hw.Machine.cores_per_socket c)

let test_app_syn_zero_params () =
  match Ppp_apps.App.of_name "SYN:0:0" with
  | Some (Ppp_apps.App.SYN { reads = 0; instrs = 0 }) -> ()
  | _ -> Alcotest.fail "SYN:0:0 should parse"

let test_scheduler_three_kind_split_count () =
  (* tiny machine (2x2): 2 MON + 1 FW + 1 RE.
     Socket-0 pairs (multisets of size 2): enumerate and dedup by symmetry. *)
  let combo = Ppp_apps.App.[ (MON, 2); (FW, 1); (RE, 1) ] in
  let splits = Ppp_core.Scheduler.splits ~config:Ppp_hw.Machine.tiny combo in
  (* Socket-0 loads {M,M},{M,F},{M,R},{F,R}; socket exchange identifies
     {M,M}|{F,R} with {F,R}|{M,M} and {M,F}|{M,R} with {M,R}|{M,F}: 2. *)
  Alcotest.(check int) "distinct placements" 2 (List.length splits)

let test_flow_on_local_node () =
  (* Local data is the core's socket on the machine that runs the spec:
     core 3 is on socket 1 of tiny (2 cores per socket) but on socket 0 of
     scaled (6 per socket). *)
  let local config core =
    let topo = config.Ppp_hw.Machine.topology in
    (Ppp_core.Runner.flow_on
       ~node:(Ppp_hw.Topology.socket_of_core topo core)
       ~core Ppp_apps.App.IP)
      .Ppp_core.Runner.data_node
  in
  Alcotest.(check int) "tiny core 3" 1 (local Ppp_hw.Machine.tiny 3);
  Alcotest.(check int) "scaled core 3" 0 (local Ppp_hw.Machine.scaled 3);
  Alcotest.(check int) "scaled core 7" 1 (local Ppp_hw.Machine.scaled 7)

module Table1 = Ppp_experiments.Table1_exp

let test_profile_orderings_scaled () =
  (* The Table 1 orderings the paper's analysis rests on, at real windows
     (slow test): MON has the most hits/sec, FW the least among realistic;
     RE has the most refs/packet. *)
  let params = Ppp_core.Runner.Params.default in
  let p k = Table1.of_result k (Ppp_core.Runner.solo ~params k) in
  let ip = p Ppp_apps.App.IP and mon = p Ppp_apps.App.MON in
  let fw = p Ppp_apps.App.FW and re = p Ppp_apps.App.RE in
  let vpn = p Ppp_apps.App.VPN in
  Alcotest.(check bool) "MON hits/s highest" true
    (mon.Table1.l3_hits_per_sec >= ip.Table1.l3_hits_per_sec);
  Alcotest.(check bool) "FW hits/s lowest" true
    (List.for_all
       (fun q -> fw.Table1.l3_hits_per_sec <= q.Table1.l3_hits_per_sec)
       [ ip; mon; re; vpn ]);
  Alcotest.(check bool) "RE most refs/packet" true
    (List.for_all
       (fun q -> re.Table1.l3_refs_per_packet >= q.Table1.l3_refs_per_packet)
       [ ip; mon; fw; vpn ]);
  Alcotest.(check bool) "IP fastest" true
    (List.for_all
       (fun q -> ip.Table1.cycles_per_packet <= q.Table1.cycles_per_packet)
       [ mon; fw; re; vpn ])

let tests =
  [
    Alcotest.test_case "VPN element encrypts" `Quick test_vpn_element_encrypts;
    Alcotest.test_case "RE element shrinks packets" `Quick test_re_element_shrinks_packets;
    Alcotest.test_case "staged drop path" `Quick test_staged_drop_path;
    Alcotest.test_case "cross-socket isolation" `Slow test_cross_socket_flows_isolated;
    Alcotest.test_case "RE decode malformed" `Quick test_re_decode_malformed;
    Alcotest.test_case "store stale read" `Quick test_store_stale_read_raises;
    Alcotest.test_case "trie pool exhaustion" `Quick test_trie_pool_exhaustion;
    Alcotest.test_case "ipv4 invalid cases" `Quick test_ipv4_invalid_cases;
    Alcotest.test_case "machine helpers" `Quick test_machine_helpers;
    Alcotest.test_case "SYN:0:0 parses" `Quick test_app_syn_zero_params;
    Alcotest.test_case "scheduler 3-kind splits" `Quick test_scheduler_three_kind_split_count;
    Alcotest.test_case "flow_on local node" `Quick test_flow_on_local_node;
    Alcotest.test_case "profile orderings (scaled)" `Slow test_profile_orderings_scaled;
  ]
