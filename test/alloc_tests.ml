(* Hot-path allocation, pinned exactly. Every simulated op of every
   experiment runs through these loops, so none of them may touch the minor
   heap per iteration: one boxed option or float per op at fig2 rates is
   hundreds of MB of garbage per experiment. Throughput is measured
   elsewhere (perfbench, parent against change on one host); what is pinned
   here is deterministic, so it can fail `dune runtest` on any machine. *)

open Ppp_hw

(* Bytes [f ()] allocates. The closure and everything it captures are
   built by the caller, before the measured interval. *)
let allocated f =
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. a0

(* A 1M-iteration loop may allocate no more than this: the float boxed by
   the Gc.allocated_bytes call itself, and nothing per iteration. *)
let slack = 256.0
let iterations = 1_000_000

let check_loop what bytes =
  if bytes > slack then
    Alcotest.failf "%s allocated %.0f B over %d iterations (slack %.0f B)"
      what bytes iterations slack

(* Repeated L1 hits on one resident line: Hierarchy.access threads sentinel
   ints end to end, with no option result to box. *)
let test_hit_path () =
  let hier = Machine.build Machine.scaled in
  let access now =
    Hierarchy.access hier ~core:0 ~write:false ~fn:Fn.none ~addr:4096 ~now
  in
  (* The first access faults the line in, the second hits in L1. *)
  ignore (access 0 : int);
  ignore (access 10 : int);
  let sink = ref 0 in
  let bytes =
    allocated (fun () ->
        for i = 1 to iterations do
          sink := !sink + access (20 + (10 * i))
        done)
  in
  ignore (Sys.opaque_identity !sink : int);
  check_loop "cache-hit path" bytes

(* The classifier fast path: Flow_table.find over a pool of pre-parsed
   packets, 3/4 of whose flows are installed. The table is larger than the
   pool, so nothing is evicted and the hit fraction is exact. *)
let test_flow_table () =
  let module Ft = Ppp_classify.Flow_table in
  let ft = Ft.create ~heap:(Ppp_simmem.Heap.create ~node:0) ~entries:4096 () in
  let b = Trace.Builder.create () in
  let pool = 1024 in
  let pkts =
    Array.init pool (fun i ->
        let pkt = Ppp_net.Packet.create 60 in
        Ppp_traffic.Gen.fill_ipv4_udp pkt
          ~src:(0x0A000000 lor i)
          ~dst:(0x0B000000 lor (i * 131 land 0xFFFF))
          ~sport:(1024 + (i land 511))
          ~dport:443 ~wire_len:64;
        pkt)
  in
  Array.iteri
    (fun i pkt ->
      if i land 3 <> 0 then
        Ft.install ft b ~fn:Fn.none (Ppp_net.Flowid.of_packet pkt) (i land 0xFF))
    pkts;
  Trace.Builder.clear b;
  let sink = ref 0 in
  let bytes =
    allocated (fun () ->
        for i = 0 to iterations - 1 do
          sink := !sink + Ft.find ft b ~fn:Fn.none pkts.(i land (pool - 1));
          Trace.Builder.clear b
        done)
  in
  ignore (Sys.opaque_identity !sink : int);
  Alcotest.(check (float 1e-9)) "hit fraction pinned by construction" 0.75
    (float_of_int (Ft.hits ft) /. float_of_int iterations);
  check_loop "Flow_table.find" bytes

(* Source.fill on the most expensive built-in model: a heavy-tailed source
   (size-weighted flow sampling plus full frame construction). The built-in
   sources promise integer-only sampling, so a boxed float or a closure in
   a fill shows here. *)
let test_source_fill () =
  let ht = Ppp_traffic.Heavy_tail.create ~seed:42 ~flows:4096 ~alpha:1.1 () in
  let src =
    Ppp_traffic.Heavy_tail.source ht ~rng:(Ppp_util.Rng.create ~seed:7)
  in
  let pkt = Ppp_net.Packet.create 60 in
  let fill n =
    for _ = 1 to n do
      match Ppp_traffic.Source.fill src pkt with
      | Ppp_traffic.Source.Filled -> ()
      | Ppp_traffic.Source.Exhausted -> assert false
    done
  in
  (* Fault in the source's arrays before the measured loop. *)
  fill 1024;
  check_loop "heavy-tail Source.fill" (allocated (fun () -> fill iterations))

(* The bytes Engine.run allocates over a 250k-cycle warmup and a window of
   [measure_cycles] on the scaled machine, and its (engine ops, packets).
   [kinds] index Engine_equiv_tests.kinds, one flow per core. *)
let engine_window ?(attrib = false) kinds measure_cycles =
  let config = Machine.scaled in
  let hier = Machine.build config in
  let flows = Engine_equiv_tests.mk_flows ~config ~seed:42 kinds in
  let attrib =
    if attrib then
      Some (Attrib.create ~cores:(Topology.cores config.Machine.topology))
    else None
  in
  let results = ref [] in
  let bytes =
    allocated (fun () ->
        results :=
          Engine.run ?attrib hier ~flows ~warmup_cycles:250_000 ~measure_cycles)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 !results in
  (bytes, (sum (fun r -> r.Engine.engine_ops), sum (fun r -> r.Engine.packets)))

(* The contended fig2 placement, IP against 5 MON on one socket, whose
   flows generate their traces without allocating. Engine.run then
   allocates a fixed window setup (result records, latency histograms, the
   profiler's lazily created per-tag histograms) and nothing per op,
   so quadrupling the measured window must not add a single byte, with the
   profiler off or on. *)
let test_engine_window () =
  let contended = [ 0; 1; 1; 1; 1; 1 ] in
  let check_marginal ~attrib what =
    let short, _ = engine_window ~attrib contended 500_000 in
    let long, work = engine_window ~attrib contended 2_000_000 in
    Alcotest.(check (float 0.0))
      (what ^ ": window bytes independent of its length")
      short long;
    work
  in
  let plain = check_marginal ~attrib:false "profiling off" in
  let profiled = check_marginal ~attrib:true "profiling on" in
  Alcotest.(check bool) "packets flowed" true (snd plain > 0);
  (* Attribution is pure observation: the profiled window replays the plain
     one exactly. *)
  Alcotest.(check (pair int int)) "profiled window replays the plain one"
    plain profiled

(* 3 VPN and 3 RE: AES-CTR and Rabin fingerprinting run on every packet, so
   a boxed block state or fingerprint costs hundreds of bytes per op. What
   remains is per packet, not per op: RE's per-packet payload generator,
   an option per fingerprint-table hit and the match list. The bound is a
   marginal rate over the extra 1.5M cycles, which is deterministic. *)
let test_crypto_window () =
  let crypto = [ 4; 4; 4; 3; 3; 3 ] in
  let short, (short_ops, _) = engine_window crypto 500_000 in
  let long, (long_ops, packets) = engine_window crypto 2_000_000 in
  Alcotest.(check bool) "packets flowed" true (packets > 0);
  let per_op = (long -. short) /. float_of_int (long_ops - short_ops) in
  if per_op > 1.0 then
    Alcotest.failf "crypto mix allocated %.2f B per marginal engine op (bound 1.0)"
      per_op

(* Every IP-fronted flow forwards over a view of one route pool, trie and
   next-hop table per process. Once a first flow has built them, a scaled
   IP or MON flow allocates only its own rings, buffers and flow table:
   about 1 MB, against 13-14 MB when every flow built its own tables. *)
let test_shared_substrate () =
  let build kind () =
    ignore
      (Ppp_apps.App.flow kind
         ~heap:(Ppp_simmem.Heap.create ~node:0)
         ~rng:(Ppp_util.Rng.create ~seed:1)
         ~scale:Machine.scaled.Machine.scale ()
        : Ppp_click.Flow.t)
  in
  build Ppp_apps.App.IP ();
  List.iter
    (fun kind ->
      let bytes = allocated (build kind) in
      if bytes > 2e6 then
        Alcotest.failf "scaled %s flow allocated %.1f MB (bound 2 MB)"
          (Ppp_apps.App.name kind) (bytes /. 1e6))
    Ppp_apps.App.[ IP; MON ]

let tests =
  [
    Alcotest.test_case "cache-hit loop" `Quick test_hit_path;
    Alcotest.test_case "flow-table lookup loop" `Quick test_flow_table;
    Alcotest.test_case "source-fill loop" `Quick test_source_fill;
    Alcotest.test_case "contended engine window" `Quick test_engine_window;
    Alcotest.test_case "crypto engine window" `Quick test_crypto_window;
    Alcotest.test_case "shared IP substrate" `Quick test_shared_substrate;
  ]
