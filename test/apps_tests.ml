open Ppp_apps

let heap () = Ppp_simmem.Heap.create ~node:0
let builder () = Ppp_hw.Trace.Builder.create ()
let fn = Ppp_hw.Fn.none

(* --- Radix trie --- *)

let ip = Ppp_net.Ipv4.addr_of_string

let test_trie_basic_lpm () =
  let t = Radix_trie.create ~heap:(heap ()) ~default_hop:0 () in
  Radix_trie.add_route t ~prefix:(ip "10.0.0.0") ~plen:8 ~hop:1;
  Radix_trie.add_route t ~prefix:(ip "10.1.0.0") ~plen:16 ~hop:2;
  Radix_trie.add_route t ~prefix:(ip "10.1.2.0") ~plen:24 ~hop:3;
  Radix_trie.add_route t ~prefix:(ip "10.1.2.128") ~plen:25 ~hop:4;
  Alcotest.(check int) "/8" 1 (Radix_trie.lookup_quiet t (ip "10.9.9.9"));
  Alcotest.(check int) "/16" 2 (Radix_trie.lookup_quiet t (ip "10.1.9.9"));
  Alcotest.(check int) "/24" 3 (Radix_trie.lookup_quiet t (ip "10.1.2.9"));
  Alcotest.(check int) "/25" 4 (Radix_trie.lookup_quiet t (ip "10.1.2.200"));
  Alcotest.(check int) "default" 0 (Radix_trie.lookup_quiet t (ip "11.0.0.1"))

let test_trie_host_route () =
  let t = Radix_trie.create ~heap:(heap ()) ~default_hop:99 () in
  Radix_trie.add_route t ~prefix:(ip "1.2.3.4") ~plen:32 ~hop:7;
  Alcotest.(check int) "exact" 7 (Radix_trie.lookup_quiet t (ip "1.2.3.4"));
  Alcotest.(check int) "neighbour -> default" 99
    (Radix_trie.lookup_quiet t (ip "1.2.3.5"))

let test_trie_default_route () =
  let t = Radix_trie.create ~heap:(heap ()) ~default_hop:0 () in
  Radix_trie.add_route t ~prefix:0 ~plen:0 ~hop:5;
  Alcotest.(check int) "/0 matches all" 5
    (Radix_trie.lookup_quiet t (ip "203.0.113.9"))

let test_trie_overwrite_same_plen () =
  let t = Radix_trie.create ~heap:(heap ()) ~default_hop:0 () in
  Radix_trie.add_route t ~prefix:(ip "10.1.2.0") ~plen:24 ~hop:3;
  Radix_trie.add_route t ~prefix:(ip "10.1.2.0") ~plen:24 ~hop:8;
  Alcotest.(check int) "later route wins" 8
    (Radix_trie.lookup_quiet t (ip "10.1.2.1"))

let test_trie_more_specific_preserved_across_order () =
  let t = Radix_trie.create ~heap:(heap ()) ~default_hop:0 () in
  (* Specific inserted first, then covering route: specific must survive. *)
  Radix_trie.add_route t ~prefix:(ip "10.1.2.0") ~plen:24 ~hop:3;
  Radix_trie.add_route t ~prefix:(ip "10.0.0.0") ~plen:8 ~hop:1;
  Alcotest.(check int) "specific survives" 3
    (Radix_trie.lookup_quiet t (ip "10.1.2.77"));
  Alcotest.(check int) "covering applies elsewhere" 1
    (Radix_trie.lookup_quiet t (ip "10.200.0.1"))

let test_trie_instrumented_matches_quiet () =
  let t = Radix_trie.create ~heap:(heap ()) ~default_hop:0 () in
  Radix_trie.add_route t ~prefix:(ip "10.1.2.0") ~plen:24 ~hop:3;
  let b = builder () in
  Alcotest.(check int) "same result" (Radix_trie.lookup_quiet t (ip "10.1.2.9"))
    (Radix_trie.lookup t b ~fn (ip "10.1.2.9"));
  Alcotest.(check bool) "emitted refs" true
    (Ppp_hw.Trace.Builder.length b > 0)

let test_trie_rejects_bad_input () =
  let t = Radix_trie.create ~heap:(heap ()) ~default_hop:0 () in
  Alcotest.check_raises "plen" (Invalid_argument "Radix_trie.add_route: plen")
    (fun () -> Radix_trie.add_route t ~prefix:0 ~plen:33 ~hop:1);
  Alcotest.check_raises "hop" (Invalid_argument "Radix_trie.add_route: hop")
    (fun () -> Radix_trie.add_route t ~prefix:0 ~plen:8 ~hop:0)

(* Oracle comparison: linear scan over the route list. *)
let oracle routes dst =
  let best = ref (0, -1) in
  List.iter
    (fun (prefix, plen, hop) ->
      let shift = 32 - plen in
      let matches =
        plen = 0 || (dst lsr shift) land ((1 lsl plen) - 1) = (prefix lsr shift) land ((1 lsl plen) - 1)
      in
      if matches && plen > snd !best then best := (hop, plen))
    routes;
  fst !best

let prop_trie_matches_oracle =
  QCheck.Test.make ~count:60 ~name:"trie LPM equals linear-scan oracle"
    QCheck.(
      pair
        (list_of_size
           Gen.(int_range 1 40)
           (triple (int_bound 0xFFFFFFFF) (int_range 8 32) (int_range 1 65535)))
        (list_of_size Gen.(int_range 1 40) (int_bound 0xFFFFFFFF)))
    (fun (routes, dsts) ->
      (* Insertion order resolves equal-plen overlaps: later wins in both. *)
      let t = Radix_trie.create ~heap:(heap ()) ~max_nodes:4096 ~default_hop:0 () in
      List.iter
        (fun (prefix, plen, hop) -> Radix_trie.add_route t ~prefix ~plen ~hop)
        routes;
      let oracle_routes =
        (* Deduplicate to the last route per (masked prefix, plen). *)
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (prefix, plen, hop) ->
            let key = (prefix lsr (32 - plen), plen) in
            Hashtbl.replace tbl key (prefix, plen, hop))
          routes;
        Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
      in
      List.for_all
        (fun dst -> Radix_trie.lookup_quiet t dst = oracle oracle_routes dst)
        dsts)

(* --- Netflow --- *)

let mk_packet ?(sport = 1234) ?(dport = 80) () =
  let p = Ppp_net.Packet.create 128 in
  Ppp_traffic.Gen.fill_ipv4_udp p ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2")
    ~sport ~dport ~wire_len:96;
  p

let test_netflow_accounting () =
  let nf = Netflow.create ~heap:(heap ()) ~entries:64 in
  let b = builder () in
  let p = mk_packet () in
  Netflow.update nf b ~fn p ~now:1;
  Netflow.update nf b ~fn p ~now:2;
  let key = Ppp_net.Flowid.of_packet p in
  (match Netflow.find nf key with
  | Some e ->
      Alcotest.(check int) "packets" 2 e.Netflow.packets;
      Alcotest.(check int) "bytes" (2 * 96) e.Netflow.bytes;
      Alcotest.(check int) "last seen" 2 e.Netflow.last_seen
  | None -> Alcotest.fail "flow not found");
  Alcotest.(check int) "one active flow" 1 (Netflow.active_flows nf)

let test_netflow_distinct_flows () =
  let nf = Netflow.create ~heap:(heap ()) ~entries:64 in
  let b = builder () in
  for sport = 1 to 20 do
    Netflow.update nf b ~fn (mk_packet ~sport ()) ~now:sport
  done;
  Alcotest.(check int) "twenty flows" 20 (Netflow.active_flows nf)

let test_netflow_capacity_pow2 () =
  let nf = Netflow.create ~heap:(heap ()) ~entries:100 in
  Alcotest.(check int) "rounded" 128 (Netflow.capacity nf)

let test_netflow_eviction_under_pressure () =
  let nf = Netflow.create ~heap:(heap ()) ~entries:16 in
  let b = builder () in
  for sport = 1 to 200 do
    Netflow.update nf b ~fn (mk_packet ~sport ()) ~now:sport
  done;
  Alcotest.(check bool) "evicted some flows" true (Netflow.evictions nf > 0);
  Alcotest.(check bool) "table did not explode" true
    (Netflow.active_flows nf <= Netflow.capacity nf)

(* --- Firewall --- *)

let test_firewall_match_semantics () =
  let r =
    {
      Firewall.rule_any with
      Firewall.src = ip "10.0.0.0";
      src_mask = 0xFF000000;
      dport_lo = 80;
      dport_hi = 80;
      proto = Ppp_net.Ipv4.proto_udp;
    }
  in
  Alcotest.(check bool) "matches" true (Firewall.matches r (mk_packet ()));
  Alcotest.(check bool) "wrong port" false
    (Firewall.matches r (mk_packet ~dport:81 ()));
  let r_tcp = { r with Firewall.proto = Ppp_net.Ipv4.proto_tcp } in
  Alcotest.(check bool) "wrong proto" false (Firewall.matches r_tcp (mk_packet ()))

let test_firewall_first_match_wins () =
  let pass_rule =
    { Firewall.rule_any with Firewall.src = ip "11.0.0.0"; src_mask = 0xFF000000 }
  in
  let fw = Firewall.create ~heap:(heap ()) [ pass_rule; Firewall.rule_any ] in
  let b = builder () in
  Alcotest.(check (option int)) "second rule matches" (Some 1)
    (Firewall.check fw b ~fn (mk_packet ()))

let test_firewall_no_match_scans_all () =
  let rules =
    List.init 10 (fun _ ->
        { Firewall.rule_any with Firewall.src = ip "11.0.0.0"; src_mask = 0xFFFFFFFF })
  in
  let fw = Firewall.create ~heap:(heap ()) rules in
  let b = builder () in
  Alcotest.(check (option int)) "no match" None (Firewall.check fw b ~fn (mk_packet ()));
  (* One read per rule; 10 rules at 16B pack into 3 distinct lines. *)
  let t = Ppp_hw.Trace.Builder.finish b in
  Alcotest.(check int) "one read per rule" 10 (Ppp_hw.Trace.mem_refs t);
  let lines = Hashtbl.create 8 in
  Ppp_hw.Trace.iter t (fun k _ p ->
      if k = Ppp_hw.Trace.Read then Hashtbl.replace lines (p / 64) ());
  Alcotest.(check int) "three distinct lines" 3 (Hashtbl.length lines)

(* --- AES --- *)

let hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let test_aes_fips197_vector () =
  (* FIPS-197 Appendix B: key 2b7e151628aed2a6abf7158809cf4f3c,
     plaintext 3243f6a8885a308d313198a2e0370734 ->
     ciphertext 3925841d02dc09fbdc118597196a0b32. *)
  let key = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let b = Bytes.of_string (hex "3243f6a8885a308d313198a2e0370734") in
  Aes.encrypt_block key b ~src:0 ~dst:0;
  Alcotest.(check string) "fips ciphertext" (hex "3925841d02dc09fbdc118597196a0b32")
    (Bytes.to_string b)

let test_aes_fips197_appendix_c () =
  (* FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff. *)
  let key = Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let b = Bytes.of_string (hex "00112233445566778899aabbccddeeff") in
  Aes.encrypt_block key b ~src:0 ~dst:0;
  Alcotest.(check string) "appendix C" (hex "69c4e0d86a7b0430d8cdb78070b4c55a")
    (Bytes.to_string b)

let test_aes_decrypt_inverts () =
  let key = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let original = hex "00112233445566778899aabbccddeeff" in
  let b = Bytes.of_string original in
  Aes.encrypt_block key b ~src:0 ~dst:0;
  Alcotest.(check bool) "changed" true (Bytes.to_string b <> original);
  Aes.decrypt_block key b ~src:0 ~dst:0;
  Alcotest.(check string) "restored" original (Bytes.to_string b)

let test_aes_ctr_matches_block_cipher () =
  (* CTR keystream for block k must equal E(nonce || counter+k). *)
  let key = Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = hex "f0f1f2f3f4f5f6f7" in
  let counter = 0x1122334455667 in
  let pt = hex "6bc1bee22e409f96e93d7e117393172a" in
  let b = Bytes.of_string pt in
  Aes.ctr_transform key ~nonce ~counter b ~pos:0 ~len:16;
  let block = Bytes.create 16 in
  String.iteri (fun i c -> Bytes.set block i c) nonce;
  for i = 0 to 7 do
    Bytes.set block (8 + i) (Char.chr ((counter lsr (8 * (7 - i))) land 0xFF))
  done;
  Aes.encrypt_block key block ~src:0 ~dst:0;
  let expected =
    String.init 16 (fun i ->
        Char.chr (Char.code pt.[i] lxor Char.code (Bytes.get block i)))
  in
  Alcotest.(check string) "ctr = pt xor E(ctr-block)" expected (Bytes.to_string b)

let test_aes_ctr_involutive () =
  let key = Aes.expand_key "0123456789abcdef" in
  let original = String.init 100 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let b = Bytes.of_string original in
  Aes.ctr_transform key ~nonce:"\x00\x01\x02\x03\x04\x05\x06\x07" ~counter:5 b
    ~pos:0 ~len:100;
  Aes.ctr_transform key ~nonce:"\x00\x01\x02\x03\x04\x05\x06\x07" ~counter:5 b
    ~pos:0 ~len:100;
  Alcotest.(check string) "double CTR restores" original (Bytes.to_string b)

let prop_aes_roundtrip =
  QCheck.Test.make ~count:50 ~name:"AES decrypt . encrypt = id"
    QCheck.(pair (string_of_size (Gen.return 16)) (string_of_size (Gen.return 16)))
    (fun (k, pt) ->
      let key = Aes.expand_key k in
      let b = Bytes.of_string pt in
      Aes.encrypt_block key b ~src:0 ~dst:0;
      Aes.decrypt_block key b ~src:0 ~dst:0;
      Bytes.to_string b = pt)

(* NIST SP 800-38A F.1.1 (ECB-AES128): four blocks under one key, for the
   cipher and for its reference. *)
let test_aes_sp800_38a_ecb () =
  let k = hex "2b7e151628aed2a6abf7158809cf4f3c" in
  let key = Aes.expand_key k and ref_key = Ref_aes.expand_key k in
  List.iter
    (fun (pt, ct) ->
      let b = Bytes.of_string (hex pt) in
      Aes.encrypt_block key b ~src:0 ~dst:0;
      Alcotest.(check string) ("Aes " ^ pt) (hex ct) (Bytes.to_string b);
      Alcotest.(check string) ("Ref_aes " ^ pt) (hex ct) (Ref_aes.encrypt ref_key (hex pt)))
    [
      ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
    ]

let test_aes_rejects_bad_input () =
  Alcotest.check_raises "15-byte key"
    (Invalid_argument "Aes.expand_key: need 16 bytes") (fun () ->
      ignore (Aes.expand_key (String.make 15 'k')));
  let key = Aes.expand_key (String.make 16 'k') and b = Bytes.make 64 '\000' in
  let ctr ?(nonce = "01234567") (pos, len) () =
    Aes.ctr_transform key ~nonce ~counter:0 b ~pos ~len
  in
  Alcotest.check_raises "7-byte nonce"
    (Invalid_argument "Aes.ctr_transform: 8-byte nonce")
    (ctr ~nonce:"0123456" (0, 16));
  (* The last two would overflow a naive [pos + len] bound. *)
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "range %d+%d" pos len)
        (Invalid_argument "Aes.ctr_transform: range")
        (ctr (pos, len)))
    [ (-1, 16); (0, -1); (60, 5); (1, max_int); (max_int, 1) ]

(* Counters near the carry out of the counter block's low 32-bit word and
   at the top of the int range, plus anything in between. *)
let counter_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 1_000_000;
        map (fun d -> (1 lsl 32) - d) (int_bound 20);
        map (fun d -> max_int - 64 - d) (int_bound 1_000);
        int_bound (max_int - 64);
      ])

let prop_aes_ctr_matches_reference =
  let gen =
    QCheck.Gen.(
      let* pos = int_range 0 300 and* len = int_range 0 300 and* tail = int_range 0 20 in
      let* data = string_size (return (pos + len + tail)) in
      let* key = string_size (return 16) and* nonce = string_size (return 8) in
      let+ counter = counter_gen in
      (key, nonce, counter, pos, len, data))
  in
  let print (key, nonce, counter, pos, len, data) =
    Printf.sprintf "key=%S nonce=%S counter=%d pos=%d len=%d data=%S" key nonce
      counter pos len data
  in
  QCheck.Test.make ~count:200 ~name:"AES-CTR = byte-oriented FIPS-197 reference"
    (QCheck.make ~print gen)
    (fun (key, nonce, counter, pos, len, data) ->
      let b = Bytes.of_string data and r = Bytes.of_string data in
      Aes.ctr_transform (Aes.expand_key key) ~nonce ~counter b ~pos ~len;
      Ref_aes.ctr_transform (Ref_aes.expand_key key) ~nonce ~counter r ~pos ~len;
      let outside s = String.sub s 0 pos ^ String.sub s (pos + len) (String.length s - pos - len) in
      Bytes.equal b r && outside (Bytes.to_string b) = outside data)

(* Source and destination anywhere in a 32-byte buffer, overlapping or not. *)
let prop_aes_block_matches_reference =
  QCheck.Test.make ~count:200 ~name:"AES block = byte-oriented FIPS-197 reference"
    QCheck.(
      quad (string_of_size (Gen.return 16)) (string_of_size (Gen.return 32))
        (int_bound 16) (int_bound 16))
    (fun (key, data, src, dst) ->
      let b = Bytes.of_string data in
      Aes.encrypt_block (Aes.expand_key key) b ~src ~dst;
      let expected = Bytes.of_string data in
      Bytes.blit_string
        (Ref_aes.encrypt (Ref_aes.expand_key key) (String.sub data src 16))
        0 expected dst 16;
      Bytes.equal b expected)

(* --- Rabin --- *)

let test_rabin_roll_equals_init () =
  let data = Bytes.init 200 (fun i -> Char.chr ((i * 31 + 7) land 0xFF)) in
  let st = ref (Rabin.init data ~pos:0) in
  for pos = 1 to 200 - Rabin.window do
    st := Rabin.roll !st data ~pos;
    Alcotest.(check int)
      (Printf.sprintf "rolling at %d" pos)
      (Rabin.fingerprint data ~pos) (Rabin.value !st)
  done

let test_rabin_content_determined () =
  let a = Bytes.of_string (String.make 40 'x') in
  let b = Bytes.of_string ("abcd" ^ String.make 40 'x') in
  Alcotest.(check int) "position independent"
    (Rabin.fingerprint a ~pos:0)
    (Rabin.fingerprint b ~pos:4)

let prop_rabin_roll_consistency =
  QCheck.Test.make ~count:100 ~name:"rabin roll = fresh fingerprint"
    QCheck.(pair (string_of_size (Gen.return 64)) (int_range 1 31))
    (fun (s, pos) ->
      let b = Bytes.of_string s in
      let st = Rabin.init b ~pos:(pos - 1) in
      Rabin.value (Rabin.roll st b ~pos) = Rabin.fingerprint b ~pos)

(* The fingerprint as the plain Horner sum, reduced with [mod] after every
   step: no folding, no precomputed table. *)
let horner b ~pos =
  let p = (1 lsl 31) - 1 in
  let acc = ref 0 in
  for i = pos to pos + Rabin.window - 1 do
    acc := ((!acc * 263) + Char.code (Bytes.get b i) + 1) mod p
  done;
  !acc

(* Windows whose fingerprint is 0 mod p: a run, then 4 bytes found by a
   meet-in-the-middle search. Reducing the last Horner step folds to p
   exactly, and only the final conditional subtraction makes it 0. *)
let zero_windows =
  [ String.make 28 '\000' ^ "\xaf\x0d\xe2\x16"; String.make 28 '\255' ^ "\xd2\xd5\xa5\x46" ]

(* Runs of 0x00 and 0xFF are the reduction's edge cases: every window term
   is then the smallest (1) or the largest (256) byte value. *)
let rabin_input_gen =
  QCheck.Gen.(
    let run c = map (fun n -> String.make n c) (int_range 0 80) in
    let+ parts =
      list_size (int_range 1 8)
        (oneof
           [ string_size (int_range 0 64); run '\000'; run '\255'; oneofl zero_windows ])
    and+ pad = oneofl [ '\000'; '\255' ] in
    let s = String.concat "" parts in
    s ^ String.make (max 0 (Rabin.window - String.length s)) pad)

let prop_rabin_matches_horner =
  QCheck.Test.make ~count:200 ~name:"rabin init and every roll = naive Horner"
    (QCheck.make ~print:String.escaped rabin_input_gen)
    (fun s ->
      let b = Bytes.of_string s in
      let st = ref (Rabin.init b ~pos:0) in
      let ok = ref (Rabin.value !st = horner b ~pos:0) in
      for pos = 1 to Bytes.length b - Rabin.window do
        st := Rabin.roll !st b ~pos;
        ok := !ok && Rabin.value !st = horner b ~pos
      done;
      !ok)

let test_rabin_fold_boundary () =
  List.iter
    (fun w ->
      let b = Bytes.of_string ("x" ^ w) in
      Alcotest.(check int) "reference" 0 (horner b ~pos:1);
      Alcotest.(check int) "init" 0 (Rabin.fingerprint b ~pos:1);
      Alcotest.(check int) "roll" 0 (Rabin.value (Rabin.roll (Rabin.init b ~pos:0) b ~pos:1)))
    zero_windows

let test_rabin_rejects_out_of_range () =
  let b = Bytes.make 40 'a' in
  let st = Rabin.init b ~pos:8 in
  (* max_int would overflow a naive [pos + window] bound. *)
  List.iter
    (fun pos ->
      Alcotest.check_raises
        (Printf.sprintf "init at %d" pos)
        (Invalid_argument "Rabin.init")
        (fun () -> ignore (Rabin.init b ~pos));
      Alcotest.check_raises
        (Printf.sprintf "roll to %d" pos)
        (Invalid_argument "Rabin.roll")
        (fun () -> ignore (Rabin.roll st b ~pos)))
    [ -1; 9; max_int ];
  Alcotest.check_raises "roll to 0" (Invalid_argument "Rabin.roll") (fun () ->
      ignore (Rabin.roll st b ~pos:0))

(* --- Packet store --- *)

let test_store_append_read () =
  let ps = Packet_store.create ~heap:(heap ()) ~capacity:256 in
  let b = builder () in
  let data = Bytes.of_string "hello, packet store!" in
  let off = Packet_store.append ps b ~fn data ~pos:0 ~len:20 in
  Alcotest.(check int) "first offset" 0 off;
  let out = Bytes.make 20 '\x00' in
  Packet_store.read ps b ~fn ~off ~len:20 out ~dst:0;
  Alcotest.(check string) "roundtrip" "hello, packet store!" (Bytes.to_string out)

let test_store_wraparound () =
  let ps = Packet_store.create ~heap:(heap ()) ~capacity:64 in
  let b = builder () in
  let chunk = Bytes.of_string (String.init 48 (fun i -> Char.chr (65 + i))) in
  ignore (Packet_store.append ps b ~fn chunk ~pos:0 ~len:48);
  let off2 = Packet_store.append ps b ~fn chunk ~pos:0 ~len:48 in
  (* Second chunk wraps; it must read back intact. *)
  let out = Bytes.make 48 '\x00' in
  Packet_store.read ps b ~fn ~off:off2 ~len:48 out ~dst:0;
  Alcotest.(check string) "wrapped readback" (Bytes.to_string chunk)
    (Bytes.to_string out);
  (* The first chunk is now partially overwritten: stale. *)
  Alcotest.(check bool) "stale content rejected" false
    (Packet_store.readable ps ~off:0 ~len:48)

let test_store_byte_at () =
  let ps = Packet_store.create ~heap:(heap ()) ~capacity:128 in
  let b = builder () in
  ignore (Packet_store.append ps b ~fn (Bytes.of_string "XYZ") ~pos:0 ~len:3);
  Alcotest.(check char) "byte 1" 'Y' (Packet_store.byte_at ps 1)

(* --- Fingerprint table --- *)

let test_ft_insert_lookup () =
  let ft = Fingerprint_table.create ~heap:(heap ()) ~entries:1024 in
  let b = builder () in
  Fingerprint_table.insert ft b ~fn ~fp:123456 ~off:789;
  Alcotest.(check (option int)) "found" (Some 789)
    (Fingerprint_table.lookup ft b ~fn ~fp:123456);
  Alcotest.(check (option int)) "absent" None
    (Fingerprint_table.lookup ft b ~fn ~fp:99)

let test_ft_overwrite () =
  let ft = Fingerprint_table.create ~heap:(heap ()) ~entries:1024 in
  let b = builder () in
  Fingerprint_table.insert ft b ~fn ~fp:42 ~off:1;
  Fingerprint_table.insert ft b ~fn ~fp:42 ~off:2;
  Alcotest.(check (option int)) "newest wins" (Some 2)
    (Fingerprint_table.lookup ft b ~fn ~fp:42)

(* --- RE --- *)

let re_pair () =
  let h = heap () in
  let mk () =
    Re.create ~heap:h ~store_bytes:65536 ~table_entries:4096 ~sample_mask:7 ()
  in
  (mk (), mk ())

let test_re_roundtrip_random () =
  let encoder, decoder = re_pair () in
  let b = builder () in
  let rng = Ppp_util.Rng.create ~seed:77 in
  let out = Bytes.make 4096 '\x00' in
  let dec = Bytes.make 4096 '\x00' in
  for _ = 1 to 50 do
    let len = 100 + Ppp_util.Rng.int rng 900 in
    let payload = Bytes.init len (fun _ -> Char.chr (Ppp_util.Rng.byte rng)) in
    let enc_len = Re.encode encoder b ~fn payload ~pos:0 ~len ~out in
    let dec_len = Re.decode decoder b ~fn out ~pos:0 ~len:enc_len ~out:dec in
    Alcotest.(check int) "length preserved" len dec_len;
    Alcotest.(check string) "content preserved"
      (Bytes.to_string payload)
      (Bytes.sub_string dec 0 dec_len)
  done

let test_re_compresses_redundancy () =
  let encoder, decoder = re_pair () in
  let b = builder () in
  let out = Bytes.make 4096 '\x00' in
  let dec = Bytes.make 4096 '\x00' in
  let payload = Bytes.of_string (String.init 512 (fun i -> Char.chr ((i * 13 + 5) land 0xFF))) in
  (* First sighting: roughly incompressible. *)
  let len1 = Re.encode encoder b ~fn payload ~pos:0 ~len:512 ~out in
  ignore (Re.decode decoder b ~fn out ~pos:0 ~len:len1 ~out:dec);
  (* Second sighting of identical content: strong compression. *)
  let len2 = Re.encode encoder b ~fn payload ~pos:0 ~len:512 ~out in
  Alcotest.(check bool) "second copy much smaller" true (len2 < 512 / 3);
  let dec_len = Re.decode decoder b ~fn out ~pos:0 ~len:len2 ~out:dec in
  Alcotest.(check string) "decoded identical" (Bytes.to_string payload)
    (Bytes.sub_string dec 0 dec_len);
  let stats = Re.stats encoder in
  Alcotest.(check bool) "matches recorded" true (stats.Re.matches > 0)

let test_re_escape_handling () =
  let encoder, decoder = re_pair () in
  let b = builder () in
  let out = Bytes.make 4096 '\x00' in
  let dec = Bytes.make 4096 '\x00' in
  (* Payload full of the escape byte. *)
  let payload = Bytes.make 100 '\xFE' in
  let enc_len = Re.encode encoder b ~fn payload ~pos:0 ~len:100 ~out in
  Alcotest.(check bool) "escaping grows output" true (enc_len > 100);
  let dec_len = Re.decode decoder b ~fn out ~pos:0 ~len:enc_len ~out:dec in
  Alcotest.(check string) "escape roundtrip" (Bytes.to_string payload)
    (Bytes.sub_string dec 0 dec_len)

let prop_re_roundtrip =
  QCheck.Test.make ~count:40 ~name:"RE decode . encode = id (stores in sync)"
    QCheck.(list_of_size Gen.(int_range 1 6) (string_of_size Gen.(int_range 40 400)))
    (fun payloads ->
      let encoder, decoder = re_pair () in
      let b = builder () in
      let out = Bytes.make 8192 '\x00' in
      let dec = Bytes.make 8192 '\x00' in
      List.for_all
        (fun s ->
          let payload = Bytes.of_string s in
          let len = Bytes.length payload in
          let enc_len = Re.encode encoder b ~fn payload ~pos:0 ~len ~out in
          let dec_len = Re.decode decoder b ~fn out ~pos:0 ~len:enc_len ~out:dec in
          dec_len = len && Bytes.sub_string dec 0 len = s)
        payloads)

(* --- Route pool + App --- *)

let test_route_pool_deterministic () =
  let a = Route_pool.make ~seed:9 ~n16:8 ~routes:50 in
  let b = Route_pool.make ~seed:9 ~n16:8 ~routes:50 in
  Alcotest.(check bool) "same routes" true (Route_pool.routes a = Route_pool.routes b)

let test_route_pool_dsts_covered () =
  let pool = Route_pool.make ~seed:10 ~n16:8 ~routes:64 in
  let trie =
    Radix_trie.create ~heap:(heap ())
      ~max_nodes:(Route_pool.suggested_max_nodes ~n16:8 ~routes:64)
      ~default_hop:0 ()
  in
  Route_pool.install pool trie;
  let rng = Ppp_util.Rng.create ~seed:1 in
  for _ = 1 to 200 do
    let dst = Route_pool.random_dst pool rng in
    Alcotest.(check bool) "routed" true (Radix_trie.lookup_quiet trie dst > 0)
  done;
  for f = 0 to 100 do
    Alcotest.(check bool) "flow dst routed" true
      (Radix_trie.lookup_quiet trie (Route_pool.dst_of_flow pool f) > 0)
  done

let test_app_names_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (App.name k ^ " roundtrip")
        true
        (App.of_name (App.name k) = Some k))
    (App.realistic @ [ App.syn_max; App.SYN { reads = 3; instrs = 7 } ])

let test_app_of_name_rejects () =
  Alcotest.(check bool) "garbage" true (App.of_name "NOPE" = None);
  Alcotest.(check bool) "bad syn" true (App.of_name "SYN:x:y" = None)

let test_app_builds_all_kinds () =
  List.iter
    (fun kind ->
      let h = heap () in
      let rng = Ppp_util.Rng.create ~seed:3 in
      let b = App.build kind ~heap:h ~rng ~scale:128 in
      Alcotest.(check bool)
        (App.name kind ^ " has elements")
        true
        (List.length b.App.elements > 0);
      (* The source produces valid packets. *)
      let p = Ppp_net.Packet.create 60 in
      (match Ppp_traffic.Source.fill b.App.source p with
      | Ppp_traffic.Source.Filled -> ()
      | Ppp_traffic.Source.Exhausted ->
          Alcotest.fail (App.name kind ^ ": source exhausted"));
      Alcotest.(check int)
        (App.name kind ^ " wire length")
        (App.wire_len kind) p.Ppp_net.Packet.len)
    (App.realistic @ [ App.syn_max ])

let test_app_working_sets_ordered () =
  let ws k = App.working_set_bytes k ~scale:8 in
  Alcotest.(check bool) "RE biggest" true
    (ws App.RE > ws App.MON && ws App.MON > ws App.IP)

let tests =
  [
    Alcotest.test_case "trie basic LPM" `Quick test_trie_basic_lpm;
    Alcotest.test_case "trie host route" `Quick test_trie_host_route;
    Alcotest.test_case "trie default route" `Quick test_trie_default_route;
    Alcotest.test_case "trie same-plen overwrite" `Quick test_trie_overwrite_same_plen;
    Alcotest.test_case "trie specific survives order" `Quick test_trie_more_specific_preserved_across_order;
    Alcotest.test_case "trie instrumented = quiet" `Quick test_trie_instrumented_matches_quiet;
    Alcotest.test_case "trie input validation" `Quick test_trie_rejects_bad_input;
    QCheck_alcotest.to_alcotest prop_trie_matches_oracle;
    Alcotest.test_case "netflow accounting" `Quick test_netflow_accounting;
    Alcotest.test_case "netflow distinct flows" `Quick test_netflow_distinct_flows;
    Alcotest.test_case "netflow capacity pow2" `Quick test_netflow_capacity_pow2;
    Alcotest.test_case "netflow eviction" `Quick test_netflow_eviction_under_pressure;
    Alcotest.test_case "firewall match semantics" `Quick test_firewall_match_semantics;
    Alcotest.test_case "firewall first match" `Quick test_firewall_first_match_wins;
    Alcotest.test_case "firewall full scan" `Quick test_firewall_no_match_scans_all;
    Alcotest.test_case "AES FIPS-197 appendix B" `Quick test_aes_fips197_vector;
    Alcotest.test_case "AES FIPS-197 appendix C" `Quick test_aes_fips197_appendix_c;
    Alcotest.test_case "AES decrypt inverts" `Quick test_aes_decrypt_inverts;
    Alcotest.test_case "AES-CTR matches block cipher" `Quick test_aes_ctr_matches_block_cipher;
    Alcotest.test_case "AES-CTR involutive" `Quick test_aes_ctr_involutive;
    QCheck_alcotest.to_alcotest prop_aes_roundtrip;
    Alcotest.test_case "AES SP 800-38A F.1.1" `Quick test_aes_sp800_38a_ecb;
    Alcotest.test_case "AES rejects bad input" `Quick test_aes_rejects_bad_input;
    QCheck_alcotest.to_alcotest prop_aes_ctr_matches_reference;
    QCheck_alcotest.to_alcotest prop_aes_block_matches_reference;
    Alcotest.test_case "rabin roll = init" `Quick test_rabin_roll_equals_init;
    Alcotest.test_case "rabin content determined" `Quick test_rabin_content_determined;
    QCheck_alcotest.to_alcotest prop_rabin_roll_consistency;
    QCheck_alcotest.to_alcotest prop_rabin_matches_horner;
    Alcotest.test_case "rabin fold boundary" `Quick test_rabin_fold_boundary;
    Alcotest.test_case "rabin rejects out of range" `Quick test_rabin_rejects_out_of_range;
    Alcotest.test_case "packet store roundtrip" `Quick test_store_append_read;
    Alcotest.test_case "packet store wraparound" `Quick test_store_wraparound;
    Alcotest.test_case "packet store byte_at" `Quick test_store_byte_at;
    Alcotest.test_case "fingerprint table" `Quick test_ft_insert_lookup;
    Alcotest.test_case "fingerprint overwrite" `Quick test_ft_overwrite;
    Alcotest.test_case "RE roundtrip random" `Quick test_re_roundtrip_random;
    Alcotest.test_case "RE compresses redundancy" `Quick test_re_compresses_redundancy;
    Alcotest.test_case "RE escape handling" `Quick test_re_escape_handling;
    QCheck_alcotest.to_alcotest prop_re_roundtrip;
    Alcotest.test_case "route pool deterministic" `Quick test_route_pool_deterministic;
    Alcotest.test_case "route pool coverage" `Quick test_route_pool_dsts_covered;
    Alcotest.test_case "app names roundtrip" `Quick test_app_names_roundtrip;
    Alcotest.test_case "app of_name rejects" `Quick test_app_of_name_rejects;
    Alcotest.test_case "app builds all kinds" `Quick test_app_builds_all_kinds;
    Alcotest.test_case "app working sets ordered" `Quick test_app_working_sets_ordered;
  ]
