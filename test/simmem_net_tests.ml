open Ppp_simmem
open Ppp_net

(* --- Heap --- *)

let test_heap_alignment () =
  let h = Heap.create ~node:0 in
  let a = Heap.alloc h ~bytes:10 in
  let b = Heap.alloc h ~bytes:100 in
  Alcotest.(check int) "line aligned" 0 (a mod 64);
  Alcotest.(check int) "next aligned" 0 (b mod 64);
  Alcotest.(check bool) "disjoint" true (b >= a + 64)

let test_heap_node_windows () =
  let h0 = Heap.create ~node:0 and h1 = Heap.create ~node:1 in
  let a0 = Heap.alloc h0 ~bytes:64 and a1 = Heap.alloc h1 ~bytes:64 in
  Alcotest.(check int) "node 0" 0 (Ppp_hw.Topology.node_of_addr a0);
  Alcotest.(check int) "node 1" 1 (Ppp_hw.Topology.node_of_addr a1)

let test_heap_never_address_zero () =
  let h = Heap.create ~node:0 in
  Alcotest.(check bool) "nonzero base" true (Heap.alloc h ~bytes:1 > 0)

let test_heap_rejects_nonpositive () =
  let h = Heap.create ~node:0 in
  Alcotest.check_raises "zero alloc"
    (Invalid_argument "Heap.alloc: size must be positive") (fun () ->
      ignore (Heap.alloc h ~bytes:0))

(* --- Iarray --- *)

let fresh_builder () = Ppp_hw.Trace.Builder.create ()

let test_iarray_data_roundtrip () =
  let h = Heap.create ~node:0 in
  let a = Iarray.create h ~elem_bytes:8 16 0 in
  let b = fresh_builder () in
  Iarray.set a b ~fn:Ppp_hw.Fn.none 3 42;
  Alcotest.(check int) "get returns set" 42 (Iarray.get a b ~fn:Ppp_hw.Fn.none 3);
  Alcotest.(check int) "peek agrees" 42 (Iarray.peek a 3)

let test_iarray_emits_refs () =
  let h = Heap.create ~node:0 in
  let a = Iarray.create h ~elem_bytes:8 16 0 in
  let b = fresh_builder () in
  ignore (Iarray.get a b ~fn:Ppp_hw.Fn.none 0 : int);
  Iarray.set a b ~fn:Ppp_hw.Fn.none 1 5;
  let t = Ppp_hw.Trace.Builder.finish b in
  Alcotest.(check int) "two refs" 2 (Ppp_hw.Trace.length t);
  Alcotest.(check bool) "read then write" true
    (Ppp_hw.Trace.kind t 0 = Ppp_hw.Trace.Read
    && Ppp_hw.Trace.kind t 1 = Ppp_hw.Trace.Write)

let test_iarray_addressing () =
  let h = Heap.create ~node:0 in
  let a = Iarray.create h ~elem_bytes:8 16 0 in
  Alcotest.(check int) "stride" 8 (Iarray.addr_of a 1 - Iarray.addr_of a 0);
  (* Elements 0-7 share the first line; one ref per access, same line. *)
  let b = fresh_builder () in
  ignore (Iarray.get a b ~fn:Ppp_hw.Fn.none 0 : int);
  ignore (Iarray.get a b ~fn:Ppp_hw.Fn.none 7 : int);
  let t = Ppp_hw.Trace.Builder.finish b in
  Alcotest.(check int) "same line" (Ppp_hw.Trace.payload t 0) (Ppp_hw.Trace.payload t 1)

let test_iarray_multiline_element () =
  let h = Heap.create ~node:0 in
  let a = Iarray.create h ~elem_bytes:128 4 0 in
  let b = fresh_builder () in
  ignore (Iarray.get a b ~fn:Ppp_hw.Fn.none 0 : int);
  Alcotest.(check int) "two lines touched" 2
    (Ppp_hw.Trace.length (Ppp_hw.Trace.Builder.finish b))

let test_iarray_peek_silent () =
  let h = Heap.create ~node:0 in
  let a = Iarray.create h ~elem_bytes:8 4 9 in
  Alcotest.(check int) "peek" 9 (Iarray.peek a 2);
  Iarray.poke a 2 1;
  Alcotest.(check int) "poke" 1 (Iarray.peek a 2)

(* --- Ibuf --- *)

let test_ibuf_touch_line_counting () =
  let h = Heap.create ~node:0 in
  let buf = Ibuf.create h 1024 in
  let b = fresh_builder () in
  Ibuf.touch_read buf b ~fn:Ppp_hw.Fn.none ~pos:0 ~len:64;
  Ibuf.touch_read buf b ~fn:Ppp_hw.Fn.none ~pos:60 ~len:8;
  let t = Ppp_hw.Trace.Builder.finish b in
  (* 64B at 0 = 1 line; 8B straddling 60..67 = 2 lines. *)
  Alcotest.(check int) "line-granular refs" 3 (Ppp_hw.Trace.length t)

let test_ibuf_bounds () =
  let h = Heap.create ~node:0 in
  let buf = Ibuf.create h 100 in
  let b = fresh_builder () in
  Alcotest.check_raises "oob" (Invalid_argument "Ibuf.touch: range out of bounds")
    (fun () -> Ibuf.touch_read buf b ~fn:Ppp_hw.Fn.none ~pos:90 ~len:20)

(* --- Packet --- *)

let test_packet_endianness () =
  let p = Packet.create 64 in
  Packet.set16 p 0 0xBEEF;
  Alcotest.(check int) "be16" 0xBE (Packet.get8 p 0);
  Alcotest.(check int) "get16" 0xBEEF (Packet.get16 p 0);
  Packet.set32 p 4 0xDEADBEEF;
  Alcotest.(check int) "get32" 0xDEADBEEF (Packet.get32 p 4)

let test_packet_resize_bounds () =
  let p = Packet.create ~cap:100 60 in
  Packet.resize p 100;
  Alcotest.(check int) "resized" 100 p.Packet.len;
  Alcotest.check_raises "too big" (Invalid_argument "Packet.resize") (fun () ->
      Packet.resize p 101)

(* --- Checksum --- *)

let test_checksum_rfc1071_example () =
  (* Classic example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7,
     one's-complement sum 0xddf2 -> checksum 0x220d. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "sum" 0xddf2 (Checksum.ones_sum b ~pos:0 ~len:8);
  Alcotest.(check int) "checksum" 0x220d (Checksum.checksum b ~pos:0 ~len:8)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\xFF\x00\xAA" in
  (* 0xFF00 + 0xAA00 = 0x1A900 -> fold -> 0xA901 *)
  Alcotest.(check int) "odd sum" 0xA901 (Checksum.ones_sum b ~pos:0 ~len:3)

let test_checksum_validates () =
  let b = Bytes.make 20 '\x00' in
  Bytes.set b 0 '\x45';
  Bytes.set b 9 '\x11';
  let c = Checksum.checksum b ~pos:0 ~len:20 in
  Bytes.set b 10 (Char.chr (c lsr 8));
  Bytes.set b 11 (Char.chr (c land 0xFF));
  Alcotest.(check bool) "valid" true (Checksum.is_valid b ~pos:0 ~len:20)

let test_incremental_update_matches_recompute () =
  let b = Bytes.init 20 (fun i -> Char.chr ((i * 37) land 0xFF)) in
  Bytes.set b 10 '\x00';
  Bytes.set b 11 '\x00';
  let c0 = Checksum.checksum b ~pos:0 ~len:20 in
  Bytes.set b 10 (Char.chr (c0 lsr 8));
  Bytes.set b 11 (Char.chr (c0 land 0xFF));
  (* Change the 16-bit word at offset 8. *)
  let old16 = (Char.code (Bytes.get b 8) lsl 8) lor Char.code (Bytes.get b 9) in
  let new16 = 0x3F07 in
  Bytes.set b 8 (Char.chr (new16 lsr 8));
  Bytes.set b 9 (Char.chr (new16 land 0xFF));
  let incr = Checksum.incremental_update ~old_checksum:c0 ~old16 ~new16 in
  Bytes.set b 10 '\x00';
  Bytes.set b 11 '\x00';
  let full = Checksum.checksum b ~pos:0 ~len:20 in
  Alcotest.(check int) "incremental = full" full incr

(* --- Ethernet / Ipv4 / Transport / Flowid --- *)

let test_mac_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s "02:00:5e:10:00:ff"
        (Ethernet.mac_to_string (Ethernet.mac_of_string s)))
    [ "02:00:5e:10:00:ff"; "2:0:5E:10:0:FF" ]

let test_mac_string_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Ethernet.mac_of_string: bad octet")
        (fun () -> ignore (Ethernet.mac_of_string s)))
    [ "zz:00:00:00:00:00"; ":::::"; "1ff:00:00:00:00:00"; "-1:0:0:0:0:0" ];
  Alcotest.check_raises "five octets"
    (Invalid_argument "Ethernet.mac_of_string: expected xx:xx:xx:xx:xx:xx")
    (fun () -> ignore (Ethernet.mac_of_string "00:00:00:00:00"))

let test_addr_string_roundtrip () =
  let a = Ipv4.addr_of_string "192.168.3.44" in
  Alcotest.(check string) "roundtrip" "192.168.3.44" (Ipv4.addr_to_string a);
  Alcotest.(check int) "value" ((192 lsl 24) lor (168 lsl 16) lor (3 lsl 8) lor 44) a

let test_addr_string_rejects_garbage () =
  Alcotest.check_raises "bad octet" (Invalid_argument "Ipv4.addr_of_string: bad octet")
    (fun () -> ignore (Ipv4.addr_of_string "1.2.3.999"))

let mk_packet () =
  let p = Packet.create 128 in
  Ppp_traffic.Gen.fill_ipv4_udp p
    ~src:(Ipv4.addr_of_string "10.0.0.1")
    ~dst:(Ipv4.addr_of_string "10.0.0.2")
    ~sport:1234 ~dport:80 ~wire_len:96;
  p

let test_ipv4_header_build_parse () =
  let p = mk_packet () in
  Alcotest.(check string) "src" "10.0.0.1" (Ipv4.addr_to_string (Ipv4.src p));
  Alcotest.(check string) "dst" "10.0.0.2" (Ipv4.addr_to_string (Ipv4.dst p));
  Alcotest.(check int) "ttl" 64 (Ipv4.ttl p);
  Alcotest.(check int) "proto" Ipv4.proto_udp (Ipv4.proto p);
  Alcotest.(check int) "total length" (96 - 14) (Ipv4.total_length p);
  Alcotest.(check bool) "checksum ok" true (Ipv4.checksum_ok p);
  Alcotest.(check bool) "valid" true (Ipv4.valid p)

let test_ipv4_ttl_decrement () =
  let p = mk_packet () in
  Ipv4.decrement_ttl p;
  Alcotest.(check int) "ttl" 63 (Ipv4.ttl p);
  Alcotest.(check bool) "checksum still ok" true (Ipv4.checksum_ok p);
  Alcotest.(check bool) "valid" true (Ipv4.valid p)

let test_ipv4_corruption_detected () =
  let p = mk_packet () in
  Packet.set8 p (Ipv4.header_offset + 12) 0x7F;
  Alcotest.(check bool) "bad checksum detected" false (Ipv4.checksum_ok p)

let test_ipv4_set_dst_incremental () =
  let p = mk_packet () in
  Ipv4.set_dst p (Ipv4.addr_of_string "172.16.5.6");
  Alcotest.(check string) "rewritten" "172.16.5.6"
    (Ipv4.addr_to_string (Ipv4.dst p));
  Alcotest.(check bool) "checksum maintained" true (Ipv4.checksum_ok p)

let test_transport_ports () =
  let p = mk_packet () in
  Alcotest.(check int) "sport" 1234 (Transport.src_port p);
  Alcotest.(check int) "dport" 80 (Transport.dst_port p);
  Alcotest.(check int) "payload offset" (14 + 20 + 8) (Transport.payload_offset p)

let test_flowid_equal_hash () =
  let p1 = mk_packet () and p2 = mk_packet () in
  let f1 = Flowid.of_packet p1 and f2 = Flowid.of_packet p2 in
  Alcotest.(check bool) "equal" true (Flowid.equal f1 f2);
  Alcotest.(check int) "hash equal" (Flowid.hash f1) (Flowid.hash f2);
  Transport.set_ports p2 ~src:9999 ~dst:80;
  let f3 = Flowid.of_packet p2 in
  Alcotest.(check bool) "different flow differs" false (Flowid.equal f1 f3)

let prop_incremental_checksum =
  QCheck.Test.make ~count:300 ~name:"incremental checksum equals recompute"
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (old16, new16) ->
      let b = Bytes.make 4 '\x00' in
      Bytes.set b 0 (Char.chr (old16 lsr 8));
      Bytes.set b 1 (Char.chr (old16 land 0xFF));
      let c0 = Checksum.checksum b ~pos:0 ~len:4 in
      Bytes.set b 0 (Char.chr (new16 lsr 8));
      Bytes.set b 1 (Char.chr (new16 land 0xFF));
      let full = Checksum.checksum b ~pos:0 ~len:4 in
      let incr = Checksum.incremental_update ~old_checksum:c0 ~old16 ~new16 in
      (* One's-complement checksums have two zero representations; compare
         by validation semantics. *)
      full = incr || (full lxor incr) land 0xFFFF = 0xFFFF)

let prop_addr_roundtrip =
  QCheck.Test.make ~count:300 ~name:"IPv4 address string roundtrip"
    QCheck.(int_bound 0xFFFFFFFF)
    (fun a -> Ipv4.addr_of_string (Ipv4.addr_to_string a) = a)

let tests =
  [
    Alcotest.test_case "heap alignment" `Quick test_heap_alignment;
    Alcotest.test_case "heap node windows" `Quick test_heap_node_windows;
    Alcotest.test_case "heap nonzero addresses" `Quick test_heap_never_address_zero;
    Alcotest.test_case "heap rejects nonpositive" `Quick test_heap_rejects_nonpositive;
    Alcotest.test_case "iarray data roundtrip" `Quick test_iarray_data_roundtrip;
    Alcotest.test_case "iarray emits refs" `Quick test_iarray_emits_refs;
    Alcotest.test_case "iarray addressing" `Quick test_iarray_addressing;
    Alcotest.test_case "iarray multiline elements" `Quick test_iarray_multiline_element;
    Alcotest.test_case "iarray peek/poke silent" `Quick test_iarray_peek_silent;
    Alcotest.test_case "ibuf line counting" `Quick test_ibuf_touch_line_counting;
    Alcotest.test_case "ibuf bounds" `Quick test_ibuf_bounds;
    Alcotest.test_case "packet endianness" `Quick test_packet_endianness;
    Alcotest.test_case "packet resize bounds" `Quick test_packet_resize_bounds;
    Alcotest.test_case "checksum rfc1071 example" `Quick test_checksum_rfc1071_example;
    Alcotest.test_case "checksum odd length" `Quick test_checksum_odd_length;
    Alcotest.test_case "checksum validates" `Quick test_checksum_validates;
    Alcotest.test_case "incremental checksum" `Quick test_incremental_update_matches_recompute;
    Alcotest.test_case "mac string roundtrip" `Quick test_mac_string_roundtrip;
    Alcotest.test_case "mac string rejects garbage" `Quick test_mac_string_rejects_garbage;
    Alcotest.test_case "addr string roundtrip" `Quick test_addr_string_roundtrip;
    Alcotest.test_case "addr rejects garbage" `Quick test_addr_string_rejects_garbage;
    Alcotest.test_case "ipv4 build/parse" `Quick test_ipv4_header_build_parse;
    Alcotest.test_case "ipv4 ttl decrement" `Quick test_ipv4_ttl_decrement;
    Alcotest.test_case "ipv4 corruption detected" `Quick test_ipv4_corruption_detected;
    Alcotest.test_case "ipv4 set_dst incremental" `Quick test_ipv4_set_dst_incremental;
    Alcotest.test_case "transport ports" `Quick test_transport_ports;
    Alcotest.test_case "flowid equal/hash" `Quick test_flowid_equal_hash;
    QCheck_alcotest.to_alcotest prop_incremental_checksum;
    QCheck_alcotest.to_alcotest prop_addr_roundtrip;
  ]
