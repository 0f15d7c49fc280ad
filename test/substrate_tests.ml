(* The shared IP substrate: every IP flow forwards over a relocated view of
   one process-wide route pool, trie and next-hop table per (seed, n16,
   routes). A view must be indistinguishable from a substrate built from
   scratch on the flow's heap: same bytes reserved, same lookup results,
   same addresses in every trace op. The address check is what pins the
   allocation order (trie node pool, trie root, next-hop table). *)

open Ppp_apps
module Heap = Ppp_simmem.Heap
module Iarray = Ppp_simmem.Iarray
module Builder = Ppp_hw.Trace.Builder

let fresh () = Heap.create ~node:0
let fn = Ppp_hw.Fn.none

(* App's substrate key at a machine scale, and a small table on a seed no
   scale gives. *)
let app_key scale =
  (0x51CC5EED + (scale * 7919), max 16 (4096 / scale), max 64 (131072 / scale))

let tiny = Ppp_hw.Machine.tiny.Ppp_hw.Machine.scale
let scaled = Ppp_hw.Machine.scaled.Ppp_hw.Machine.scale

let keys =
  [
    ("tiny", app_key tiny);
    ("scaled", app_key scaled);
    ("64 routes over 8 blocks", (0x51CC5EED, 8, 64));
  ]

(* Half routed destinations, half uniform ones (mostly the default
   route). *)
let destinations pool =
  let rng = Ppp_util.Rng.create ~seed:7 in
  Array.init 10_000 (fun i ->
      if i land 1 = 0 then Route_pool.random_dst pool rng
      else Ppp_util.Rng.int rng 0x40000000 * 4 + Ppp_util.Rng.int rng 4)

(* The element's table reads for [dst]: the trie walk, then the next-hop
   record of a routed destination. *)
let forward b (s : Route_pool.substrate) dst =
  let hop = Radix_trie.lookup s.trie b ~fn dst in
  if hop > 0 then
    ignore
      (Iarray.get s.hop_table b ~fn ((hop - 1) mod Iarray.length s.hop_table)
        : int)

let ops b =
  let t = Builder.finish b in
  Array.sub (Ppp_hw.Trace.raw_ops t) 0 (Ppp_hw.Trace.length t)

(* Op arrays run to tens of thousands of words: report the first
   difference, not both arrays. *)
let check_ops what want got =
  let n = min (Array.length want) (Array.length got) in
  let rec first i = if i < n && want.(i) = got.(i) then first (i + 1) else i in
  let i = first 0 in
  if i < n || Array.length want <> Array.length got then
    Alcotest.failf "%s: %d vs %d ops, first difference at op %d" what
      (Array.length want) (Array.length got) i

let test_shared_equals_scratch () =
  List.iter
    (fun (what, (seed, n16, routes)) ->
      let h1 = fresh () and h2 = fresh () in
      let scratch = Route_pool.build_substrate ~heap:h1 ~seed ~n16 ~routes in
      let shared = Route_pool.shared ~heap:h2 ~seed ~n16 ~routes in
      Alcotest.(check int) (what ^ ": Heap.used") (Heap.used h1) (Heap.used h2);
      let dsts = destinations scratch.pool in
      Array.iter
        (fun dst ->
          let want = Radix_trie.lookup_quiet scratch.trie dst in
          let got = Radix_trie.lookup_quiet shared.trie dst in
          if want <> got then
            Alcotest.failf "%s: lookup %08x: %d from scratch, %d shared" what dst
              want got)
        dsts;
      let b1 = Builder.create () and b2 = Builder.create () in
      Array.iter (forward b1 scratch) dsts;
      Array.iter (forward b2 shared) dsts;
      check_ops (what ^ ": trace ops") (ops b1) (ops b2))
    keys

(* The op words of a flow's first 1,000 items, built on a fresh heap. *)
let flow_ops kind ~scale ~seed =
  let flow =
    App.flow kind ~heap:(fresh ()) ~rng:(Ppp_util.Rng.create ~seed) ~scale ()
  in
  let source = Ppp_click.Flow.source flow in
  Array.concat
    (List.init 1_000 (fun i ->
         match source (i * 1_000) with
         | Ppp_hw.Engine.Packet t | Idle t | Reordered t ->
             Array.sub (Ppp_hw.Trace.raw_ops t) 0 (Ppp_hw.Trace.length t)))

(* Scales no machine and no other test uses, one per kind, so the first
   build of each in this process is the one that creates its template. *)
let private_scales = [ (App.IP, 77); (App.MON, 79) ]

let test_cold_and_warm_flows () =
  let alloc f =
    let a0 = Gc.allocated_bytes () in
    let r = f () in
    (r, Gc.allocated_bytes () -. a0)
  in
  List.iter
    (fun (kind, scale) ->
      let what = Printf.sprintf "%s at scale %d" (App.name kind) scale in
      let cold, cold_bytes = alloc (fun () -> flow_ops kind ~scale ~seed:5) in
      let warm, warm_bytes = alloc (fun () -> flow_ops kind ~scale ~seed:5) in
      (* The template's host trie alone is over 1 MB at these scales. *)
      if cold_bytes -. warm_bytes < 1e6 then
        Alcotest.failf "%s: first build was not cold (%.0f vs %.0f B)" what
          cold_bytes warm_bytes;
      check_ops (what ^ ": cold = warm") cold warm)
    private_scales;
  List.iter
    (fun scale ->
      List.iter
        (fun kind ->
          check_ops
            (Printf.sprintf "%s at scale %d, twice" (App.name kind) scale)
            (flow_ops kind ~scale ~seed:5)
            (flow_ops kind ~scale ~seed:5))
        [ App.IP; App.MON ])
    [ tiny; scaled ]

let test_relocated_read_only () =
  let t = Radix_trie.create ~heap:(fresh ()) ~default_hop:0 () in
  Radix_trie.add_route t ~prefix:0x0A010200 ~plen:24 ~hop:3;
  let view = Radix_trie.relocate ~heap:(fresh ()) t in
  Alcotest.(check int) "view routes" 3 (Radix_trie.lookup_quiet view 0x0A010209);
  Alcotest.check_raises "add_route on a view"
    (Invalid_argument "Radix_trie.add_route: relocated view") (fun () ->
      Radix_trie.add_route view ~prefix:0x0B000000 ~plen:8 ~hop:1);
  let seed, n16, routes = app_key tiny in
  let shared = Route_pool.shared ~heap:(fresh ()) ~seed ~n16 ~routes in
  Alcotest.check_raises "add_route on a shared trie"
    (Invalid_argument "Radix_trie.add_route: relocated view") (fun () ->
      Radix_trie.add_route shared.trie ~prefix:0x0B000000 ~plen:8 ~hop:1)

(* Two domains asking for one key at once get one template, and flows built
   on two domains replay the sequential ones. Scale 78 is private to this
   test too, so the race is for a template nobody has built yet. *)
let test_parallel_builds () =
  let pools =
    Ppp_core.Parallel.map ~jobs:2
      (fun _ -> (App.ip_substrate ~heap:(fresh ()) ~scale:78).Route_pool.pool)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "one template" true
    (List.for_all (fun p -> p == List.hd pools) pools);
  let build jobs =
    Ppp_core.Parallel.map ~jobs
      (fun (kind, seed) -> flow_ops kind ~scale:78 ~seed)
      [ (App.IP, 1); (App.MON, 2); (App.IP, 3); (App.MON, 4) ]
  in
  List.iter2 (check_ops "jobs 2 = jobs 1") (build 1) (build 2)

let tests =
  [
    Alcotest.test_case "shared = from scratch" `Quick test_shared_equals_scratch;
    Alcotest.test_case "cold and warm flows" `Quick test_cold_and_warm_flows;
    Alcotest.test_case "relocated trie is read-only" `Quick
      test_relocated_read_only;
    Alcotest.test_case "parallel builds share one template" `Quick
      test_parallel_builds;
  ]
