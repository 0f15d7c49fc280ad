open Ppp_hw

let geo size ways = { Cache.size_bytes = size; ways; line_bytes = 64 }

(* --- Cache --- *)

(* The two-step victim_slot/fill protocol, folded back into the old
   insert-returning-the-eviction shape the tests are written against. *)
let insert ?(dirty = false) ?(aux = 0) c line =
  let s = Cache.victim_slot c line in
  let victim =
    if Cache.slot_valid c s then
      Some (Cache.line c s, Cache.dirty c s, Cache.aux c s)
    else None
  in
  Cache.fill c ~slot:s ~dirty ~aux line;
  victim

(* Old-style invalidate returning the line's final (dirty, aux) state. *)
let invalidate c line =
  let s = Cache.probe c line in
  if s < 0 then None
  else begin
    let d = Cache.dirty c s and a = Cache.aux c s in
    Cache.invalidate_slot c s;
    Some (d, a)
  end

let test_cache_geometry () =
  let c = Cache.create (geo 4096 4) in
  Alcotest.(check int) "sets" 16 (Cache.sets c);
  Alcotest.(check int) "lines" 64 (Cache.lines c);
  Alcotest.(check int) "line_of_addr" 2 (Cache.line_of_addr c 130)

let test_cache_bad_geometry () =
  Alcotest.check_raises "non-pow2 sets"
    (Invalid_argument "Cache.create: set count must be a power of two")
    (fun () -> ignore (Cache.create (geo (3 * 64 * 4) 4)))

let test_cache_miss_then_hit () =
  let c = Cache.create (geo 4096 4) in
  Alcotest.(check int) "initially absent" Cache.none (Cache.find c 5);
  ignore (insert c 5);
  Alcotest.(check bool) "present" true (Cache.find c 5 >= 0)

let test_cache_lru_eviction () =
  let c = Cache.create (geo (4 * 64) 4) in
  (* one set of 4 ways: lines mapping to set 0 are multiples of 1 (nsets=1) *)
  for line = 0 to 3 do
    ignore (insert c line)
  done;
  (* Touch 0 so line 1 becomes LRU. *)
  ignore (Cache.find c 0);
  match insert c 10 with
  | Some (victim_line, _, _) ->
      Alcotest.(check int) "evicts LRU (1)" 1 victim_line
  | None -> Alcotest.fail "expected an eviction"

let test_cache_insert_prefers_invalid_way () =
  let c = Cache.create (geo (4 * 64) 4) in
  for line = 0 to 3 do
    ignore (insert c line)
  done;
  ignore (invalidate c 2);
  Alcotest.(check bool) "no eviction when a way is free" true
    (insert c 7 = None);
  Alcotest.(check bool) "old lines still resident" true
    (Cache.resident c 0 && Cache.resident c 1 && Cache.resident c 3)

let test_cache_dirty_writeback_state () =
  let c = Cache.create (geo (2 * 64) 2) in
  ignore (insert c ~dirty:true 1);
  (match invalidate c 1 with
  | Some (dirty, _) -> Alcotest.(check bool) "was dirty" true dirty
  | None -> Alcotest.fail "line missing");
  Alcotest.(check bool) "gone" false (Cache.resident c 1)

let test_cache_aux_roundtrip () =
  let c = Cache.create (geo 4096 4) in
  ignore (insert c ~aux:42 9);
  let slot = Cache.find c 9 in
  if slot < 0 then Alcotest.fail "line missing";
  Alcotest.(check int) "aux" 42 (Cache.aux c slot);
  Cache.set_aux c slot 7;
  Alcotest.(check int) "aux updated" 7 (Cache.aux c slot)

let test_cache_double_insert_rejected () =
  let c = Cache.create (geo 4096 4) in
  ignore (insert c 3);
  Alcotest.check_raises "double insert"
    (Invalid_argument "Cache.victim_slot: line already resident") (fun () ->
      ignore (insert c 3))

let test_cache_occupancy_bounded () =
  let c = Cache.create (geo 4096 4) in
  for line = 0 to 499 do
    if not (Cache.resident c line) then ignore (insert c line)
  done;
  Alcotest.(check bool) "occupancy <= capacity" true
    (Cache.occupancy c <= Cache.lines c)

let test_cache_fold_resident () =
  let c = Cache.create (geo 4096 4) in
  ignore (insert c ~dirty:true ~aux:3 1);
  ignore (insert c 2);
  let count, dirty_count, aux_sum =
    Cache.fold_resident c ~init:(0, 0, 0)
      (fun (n, d, a) _line ~dirty ~aux ->
        ((n + 1), (d + if dirty then 1 else 0), a + aux))
  in
  Alcotest.(check int) "resident lines" 2 count;
  Alcotest.(check int) "dirty lines" 1 dirty_count;
  Alcotest.(check int) "aux sum" 3 aux_sum

let prop_cache_occupancy_invariant =
  QCheck.Test.make ~count:100 ~name:"cache occupancy never exceeds capacity"
    QCheck.(list_of_size Gen.(int_range 1 500) (int_bound 1000))
    (fun lines ->
      let c = Cache.create (geo 1024 2) in
      List.iter
        (fun line -> if not (Cache.resident c line) then ignore (insert c line))
        lines;
      Cache.occupancy c <= Cache.lines c)

let prop_cache_find_after_insert =
  QCheck.Test.make ~count:100 ~name:"inserted line findable until evicted"
    QCheck.(int_bound 100_000)
    (fun line ->
      let c = Cache.create (geo 4096 8) in
      ignore (insert c line);
      Cache.resident c line)

(* --- Topology --- *)

let test_topology_mapping () =
  let t = Topology.create ~sockets:2 ~cores_per_socket:6 in
  Alcotest.(check int) "cores" 12 (Topology.cores t);
  Alcotest.(check int) "socket of core 7" 1 (Topology.socket_of_core t 7);
  Alcotest.(check int) "local index of core 7" 1 (Topology.local_index t 7)

let test_topology_address_map () =
  Alcotest.(check int) "node of low addr" 0 (Topology.node_of_addr 12345);
  let base1 = Topology.node_base 1 in
  Alcotest.(check int) "node of node1 addr" 1 (Topology.node_of_addr (base1 + 99))

(* --- Memctrl --- *)

let test_memctrl_no_wait_when_idle () =
  let mc = Memctrl.create ~service_cycles:10 in
  Alcotest.(check int) "idle wait" 0 (Memctrl.demand_access mc ~now:100)

let test_memctrl_queueing () =
  let mc = Memctrl.create ~service_cycles:10 in
  ignore (Memctrl.demand_access mc ~now:0);
  Alcotest.(check int) "second waits" 10 (Memctrl.demand_access mc ~now:0);
  Alcotest.(check int) "third waits more" 20 (Memctrl.demand_access mc ~now:0)

let test_memctrl_drains () =
  let mc = Memctrl.create ~service_cycles:10 in
  ignore (Memctrl.demand_access mc ~now:0);
  Alcotest.(check int) "later request free" 0 (Memctrl.demand_access mc ~now:1000)

let test_memctrl_writeback_occupies () =
  let mc = Memctrl.create ~service_cycles:10 in
  Memctrl.writeback mc ~now:0;
  Alcotest.(check int) "demand queues behind writeback" 10
    (Memctrl.demand_access mc ~now:0);
  Alcotest.(check int) "transactions" 2 (Memctrl.transactions mc)

(* --- Trace --- *)

let test_trace_roundtrip () =
  let b = Trace.Builder.create () in
  let fn = Fn.register "test_fn" in
  Trace.Builder.compute b ~fn 100;
  Trace.Builder.read b ~fn 0x1234C0;
  Trace.Builder.write b ~fn 0x999940;
  Trace.Builder.stall b 7;
  Trace.Builder.dma b 0x40;
  let t = Trace.Builder.finish b in
  Alcotest.(check int) "length" 5 (Trace.length t);
  Alcotest.(check bool) "kinds" true
    (Trace.kind t 0 = Trace.Compute && Trace.kind t 1 = Trace.Read
    && Trace.kind t 2 = Trace.Write && Trace.kind t 3 = Trace.Stall
    && Trace.kind t 4 = Trace.Dma);
  Alcotest.(check int) "compute payload" 100 (Trace.payload t 0);
  Alcotest.(check int) "read addr" 0x1234C0 (Trace.payload t 1);
  Alcotest.(check int) "fn preserved" fn (Trace.fn t 1);
  Alcotest.(check int) "mem refs" 2 (Trace.mem_refs t);
  Alcotest.(check int) "instructions" 102 (Trace.instructions t)

let test_trace_builder_reuse () =
  let b = Trace.Builder.create ~initial_capacity:2 () in
  let fn = Fn.none in
  for i = 1 to 100 do
    Trace.Builder.read b ~fn (i * 64)
  done;
  Alcotest.(check int) "grows" 100 (Trace.Builder.length b);
  Trace.Builder.clear b;
  Alcotest.(check int) "cleared" 0 (Trace.Builder.length b)

let test_trace_zero_compute_dropped () =
  let b = Trace.Builder.create () in
  Trace.Builder.compute b ~fn:Fn.none 0;
  Alcotest.(check int) "no-op compute skipped" 0 (Trace.Builder.length b)

(* --- Fn --- *)

let test_fn_registry () =
  let a = Fn.register "fn_test_alpha" in
  let a' = Fn.register "fn_test_alpha" in
  Alcotest.(check int) "idempotent" a a';
  Alcotest.(check string) "name" "fn_test_alpha" (Fn.name a)

(* --- Counters --- *)

let test_counters_diff () =
  let c = Counters.create () in
  let fn = Fn.register "ctr_fn" in
  Counters.add_l3_hit c fn;
  Counters.add_l3_miss c fn;
  let snap = Counters.copy c in
  Counters.add_l3_hit c fn;
  Counters.add_packet c;
  let d = Counters.diff c snap in
  Alcotest.(check int) "window hits" 1 (Counters.l3_hits d);
  Alcotest.(check int) "window misses" 0 (Counters.l3_misses d);
  Alcotest.(check int) "window packets" 1 (Counters.packets d);
  Alcotest.(check int) "fn refs tracked" 1 (Counters.fn_l3_hits d fn)

(* --- Hierarchy --- *)

let tiny_hier () =
  let topo = Topology.create ~sockets:2 ~cores_per_socket:2 in
  Hierarchy.create topo Costs.default
    { Hierarchy.l1 = geo 1024 2; l2 = geo 4096 4; l3 = geo 65536 8 }

let test_hierarchy_miss_then_hits () =
  let h = tiny_hier () in
  let addr = 0x1000 in
  let lat1 = Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:0 in
  let lat2 = Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:500 in
  Alcotest.(check bool) "first access slower" true (lat1 > lat2);
  Alcotest.(check int) "second is L1 hit" Costs.default.Costs.l1_lat lat2;
  let c = Hierarchy.counters h 0 in
  Alcotest.(check int) "one miss" 1 (Counters.l3_misses c);
  Alcotest.(check int) "one l1 hit" 1 (Counters.l1_hits c)

let test_hierarchy_l3_shared_within_socket () =
  let h = tiny_hier () in
  let addr = 0x2000 in
  ignore (Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:0);
  (* Core 1 (same socket) should hit in L3. *)
  ignore (Hierarchy.access h ~core:1 ~write:false ~fn:Fn.none ~addr ~now:100);
  let c1 = Hierarchy.counters h 1 in
  Alcotest.(check int) "l3 hit for peer core" 1 (Counters.l3_hits c1);
  Alcotest.(check int) "no miss for peer core" 0 (Counters.l3_misses c1)

let test_hierarchy_l3_not_shared_across_sockets () =
  let h = tiny_hier () in
  let addr = 0x3000 in
  ignore (Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:0);
  (* Core 2 is on the other socket: its own L3 misses. *)
  ignore (Hierarchy.access h ~core:2 ~write:false ~fn:Fn.none ~addr ~now:100);
  let c2 = Hierarchy.counters h 2 in
  Alcotest.(check int) "remote socket misses" 1 (Counters.l3_misses c2)

let test_hierarchy_remote_access_slower () =
  let h = tiny_hier () in
  let local = 0x4000 in
  let remote = Topology.node_base 1 + 0x4000 in
  let lat_local = Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr:local ~now:0 in
  let lat_remote =
    Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr:remote ~now:0
  in
  Alcotest.(check int) "QPI penalty" Costs.default.Costs.qpi_lat
    (lat_remote - lat_local)

let test_hierarchy_write_invalidate () =
  let h = tiny_hier () in
  let addr = 0x5000 in
  (* Both cores of socket 0 read the line. *)
  ignore (Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:0);
  ignore (Hierarchy.access h ~core:1 ~write:false ~fn:Fn.none ~addr ~now:10);
  Alcotest.(check bool) "both hold it" true
    (Hierarchy.private_resident h ~core:0 ~addr
    && Hierarchy.private_resident h ~core:1 ~addr);
  (* Core 0 writes: core 1's copy must be invalidated. *)
  ignore (Hierarchy.access h ~core:0 ~write:true ~fn:Fn.none ~addr ~now:20);
  Alcotest.(check bool) "writer keeps it" true
    (Hierarchy.private_resident h ~core:0 ~addr);
  Alcotest.(check bool) "peer copy invalidated" false
    (Hierarchy.private_resident h ~core:1 ~addr)

let test_hierarchy_dirty_transfer () =
  let h = tiny_hier () in
  let addr = 0x6000 in
  ignore (Hierarchy.access h ~core:0 ~write:true ~fn:Fn.none ~addr ~now:0);
  (* Peer read must see a snoop cost (dirty line in core 0's cache). *)
  let lat = Hierarchy.access h ~core:1 ~write:false ~fn:Fn.none ~addr ~now:10 in
  Alcotest.(check int) "L3 hit + cache-to-cache penalty"
    (Costs.default.Costs.l3_lat + Costs.default.Costs.c2c_lat)
    lat

let test_hierarchy_dma_invalidates () =
  let h = tiny_hier () in
  let addr = 0x7000 in
  ignore (Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:0);
  Alcotest.(check bool) "cached" true (Hierarchy.l3_resident h ~socket:0 ~addr);
  Hierarchy.dma_write h ~addr ~now:50;
  Alcotest.(check bool) "L3 copy gone" false
    (Hierarchy.l3_resident h ~socket:0 ~addr);
  Alcotest.(check bool) "private copy gone" false
    (Hierarchy.private_resident h ~core:0 ~addr);
  (* The re-read is a compulsory miss. *)
  let before = Counters.l3_misses (Hierarchy.counters h 0) in
  ignore (Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:100);
  Alcotest.(check int) "compulsory miss" (before + 1)
    (Counters.l3_misses (Hierarchy.counters h 0))

let test_hierarchy_inclusion_back_invalidation () =
  let h = tiny_hier () in
  (* Fill one L3 set beyond capacity; the victim must leave the L1 too.
     L3: 65536B/8w/64B = 128 sets; lines with the same (line mod 128). *)
  let line0_addr = 0x0 in
  ignore (Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr:line0_addr ~now:0);
  Alcotest.(check bool) "in L1 initially" true
    (Hierarchy.private_resident h ~core:0 ~addr:line0_addr);
  for i = 1 to 8 do
    let addr = i * 128 * 64 in
    ignore (Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:(i * 10))
  done;
  Alcotest.(check bool) "victim left L3" false
    (Hierarchy.l3_resident h ~socket:0 ~addr:line0_addr);
  Alcotest.(check bool) "inclusion: also left the private caches" false
    (Hierarchy.private_resident h ~core:0 ~addr:line0_addr)

let test_hierarchy_memctrl_counted () =
  let h = tiny_hier () in
  ignore (Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr:0x8000 ~now:0);
  Alcotest.(check int) "one transaction on node 0" 1
    (Hierarchy.memctrl_transactions h ~node:0);
  Alcotest.(check int) "none on node 1" 0
    (Hierarchy.memctrl_transactions h ~node:1)

(* An address names its home node. A node the machine lacks has no
   controller to charge, so the access is rejected. *)
let test_hierarchy_rejects_missing_node () =
  let topo = Topology.create ~sockets:1 ~cores_per_socket:2 in
  let h = Hierarchy.create topo Costs.default Machine.tiny.Machine.geometry in
  let addr = Topology.node_base 1 in
  match Hierarchy.access h ~core:0 ~write:false ~fn:Fn.none ~addr ~now:0 with
  | _ -> Alcotest.fail "an address on node 1 was served by a 1-socket machine"
  | exception Invalid_argument _ -> ()

(* --- Engine --- *)

let const_source ops_fn =
  let b = Trace.Builder.create () in
  fun _now ->
    Trace.Builder.clear b;
    ops_fn b;
    Engine.Packet (Trace.Builder.finish b)

let test_engine_throughput_accounting () =
  let h = tiny_hier () in
  (* Each packet = 1000 instructions => 600 cycles at CPI 0.6. *)
  let source = const_source (fun b -> Trace.Builder.compute b ~fn:Fn.none 1000) in
  let results =
    Engine.run h
      ~flows:[ { Engine.core = 0; label = "x"; source } ]
      ~warmup_cycles:10_000 ~measure_cycles:60_000
  in
  match results with
  | [ r ] ->
      let expected = 60_000 / 600 in
      Alcotest.(check bool) "packet count near expected" true
        (abs (r.Engine.packets - expected) <= 2)
  | _ -> Alcotest.fail "one result expected"

let test_engine_contention_slows_flows () =
  (* Two cores hammering random lines over a shared L3-sized region get
     fewer packets than one core alone. *)
  let mk_flows n =
    let rng = Ppp_util.Rng.create ~seed:5 in
    List.init n (fun core ->
        let r = Ppp_util.Rng.split rng in
        let b = Trace.Builder.create () in
        let region_base = core * (1 lsl 24) in
        let source _now =
          Trace.Builder.clear b;
          for _ = 1 to 16 do
            Trace.Builder.read b ~fn:Fn.none
              (region_base + (Ppp_util.Rng.int r 2048 * 64))
          done;
          Engine.Packet (Trace.Builder.finish b)
        in
        { Engine.core; label = "mem"; source })
  in
  let solo =
    match Engine.run (tiny_hier ()) ~flows:(mk_flows 1) ~warmup_cycles:50_000 ~measure_cycles:200_000 with
    | r :: _ -> r.Engine.throughput_pps
    | [] -> assert false
  in
  let corun =
    match Engine.run (tiny_hier ()) ~flows:(mk_flows 2) ~warmup_cycles:50_000 ~measure_cycles:200_000 with
    | r :: _ -> r.Engine.throughput_pps
    | [] -> assert false
  in
  Alcotest.(check bool) "contention reduces throughput" true (corun < solo)

let test_engine_rejects_core_collision () =
  let h = tiny_hier () in
  let source = const_source (fun b -> Trace.Builder.compute b ~fn:Fn.none 10) in
  Alcotest.check_raises "duplicate core"
    (Invalid_argument "Engine.run: two flows on the same core") (fun () ->
      ignore
        (Engine.run h
           ~flows:
             [
               { Engine.core = 0; label = "a"; source };
               { Engine.core = 0; label = "b"; source };
             ]
           ~warmup_cycles:10 ~measure_cycles:100))

let test_engine_rejects_empty_trace () =
  let h = tiny_hier () in
  let source _now = Engine.Packet Trace.empty in
  Alcotest.check_raises "empty trace"
    (Invalid_argument "Engine: source returned an empty trace") (fun () ->
      ignore
        (Engine.run h
           ~flows:[ { Engine.core = 0; label = "a"; source } ]
           ~warmup_cycles:10 ~measure_cycles:100))

let test_engine_idle_items_not_counted () =
  let h = tiny_hier () in
  let toggle = ref false in
  let b = Trace.Builder.create () in
  let source _now =
    Trace.Builder.clear b;
    toggle := not !toggle;
    if !toggle then begin
      Trace.Builder.compute b ~fn:Fn.none 100;
      Engine.Packet (Trace.Builder.finish b)
    end
    else begin
      Trace.Builder.stall b 60;
      Engine.Idle (Trace.Builder.finish b)
    end
  in
  match
    Engine.run h
      ~flows:[ { Engine.core = 0; label = "t"; source } ]
      ~warmup_cycles:1_000 ~measure_cycles:12_000
  with
  | [ r ] ->
      (* Each packet costs 60 cycles compute + 60 stall => ~100/12000. *)
      Alcotest.(check bool) "idle items excluded from packets" true
        (r.Engine.packets <= 110 && r.Engine.packets >= 90)
  | _ -> Alcotest.fail "one result"

(* --- Machine --- *)

let test_machine_configs () =
  Alcotest.(check (list string)) "names" [ "westmere"; "scaled"; "tiny" ]
    Machine.names;
  Alcotest.(check bool) "lookup" true (Machine.by_name "scaled" <> None);
  Alcotest.(check bool) "unknown" true (Machine.by_name "nope" = None);
  let h = Machine.build Machine.tiny in
  Alcotest.(check int) "tiny l3 empty" 0 (Hierarchy.l3_occupancy h ~socket:0)

let test_costs_delta () =
  Alcotest.(check (float 1e-12)) "delta seconds"
    (122.0 /. 2.8e9)
    (Costs.delta_seconds Costs.default)

let tests =
  [
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    Alcotest.test_case "cache bad geometry" `Quick test_cache_bad_geometry;
    Alcotest.test_case "cache miss then hit" `Quick test_cache_miss_then_hit;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache prefers invalid way" `Quick test_cache_insert_prefers_invalid_way;
    Alcotest.test_case "cache dirty state" `Quick test_cache_dirty_writeback_state;
    Alcotest.test_case "cache aux roundtrip" `Quick test_cache_aux_roundtrip;
    Alcotest.test_case "cache double insert" `Quick test_cache_double_insert_rejected;
    Alcotest.test_case "cache occupancy bound" `Quick test_cache_occupancy_bounded;
    Alcotest.test_case "cache fold resident" `Quick test_cache_fold_resident;
    QCheck_alcotest.to_alcotest prop_cache_occupancy_invariant;
    QCheck_alcotest.to_alcotest prop_cache_find_after_insert;
    Alcotest.test_case "topology mapping" `Quick test_topology_mapping;
    Alcotest.test_case "topology address map" `Quick test_topology_address_map;
    Alcotest.test_case "memctrl idle" `Quick test_memctrl_no_wait_when_idle;
    Alcotest.test_case "memctrl queueing" `Quick test_memctrl_queueing;
    Alcotest.test_case "memctrl drains" `Quick test_memctrl_drains;
    Alcotest.test_case "memctrl writeback occupancy" `Quick test_memctrl_writeback_occupies;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace builder reuse" `Quick test_trace_builder_reuse;
    Alcotest.test_case "trace zero compute" `Quick test_trace_zero_compute_dropped;
    Alcotest.test_case "fn registry" `Quick test_fn_registry;
    Alcotest.test_case "counters diff" `Quick test_counters_diff;
    Alcotest.test_case "hierarchy miss then hits" `Quick test_hierarchy_miss_then_hits;
    Alcotest.test_case "L3 shared within socket" `Quick test_hierarchy_l3_shared_within_socket;
    Alcotest.test_case "L3 private across sockets" `Quick test_hierarchy_l3_not_shared_across_sockets;
    Alcotest.test_case "remote access slower" `Quick test_hierarchy_remote_access_slower;
    Alcotest.test_case "write invalidates peers" `Quick test_hierarchy_write_invalidate;
    Alcotest.test_case "dirty cache-to-cache" `Quick test_hierarchy_dirty_transfer;
    Alcotest.test_case "DMA invalidates" `Quick test_hierarchy_dma_invalidates;
    Alcotest.test_case "inclusive back-invalidation" `Quick test_hierarchy_inclusion_back_invalidation;
    Alcotest.test_case "memctrl transactions counted" `Quick test_hierarchy_memctrl_counted;
    Alcotest.test_case "address on a missing node rejected" `Quick
      test_hierarchy_rejects_missing_node;
    Alcotest.test_case "engine throughput accounting" `Quick test_engine_throughput_accounting;
    Alcotest.test_case "engine contention slows flows" `Quick test_engine_contention_slows_flows;
    Alcotest.test_case "engine rejects core collision" `Quick test_engine_rejects_core_collision;
    Alcotest.test_case "engine rejects empty trace" `Quick test_engine_rejects_empty_trace;
    Alcotest.test_case "engine idle items not counted" `Quick test_engine_idle_items_not_counted;
    Alcotest.test_case "machine configs" `Quick test_machine_configs;
    Alcotest.test_case "costs delta" `Quick test_costs_delta;
  ]

(* Reference-model equivalence: the Cache must behave exactly like a naive
   per-set LRU list over any operation sequence. *)
let prop_cache_equals_reference_model =
  let module Ref = struct
    (* set -> most-recent-first list of (line, dirty) *)
    type t = { sets : (int * bool) list array; ways : int }

    let create ~nsets ~ways = { sets = Array.make nsets []; ways }
    let set_of t line = line mod Array.length t.sets

    let find t line =
      let s = set_of t line in
      List.mem_assoc line t.sets.(s)

    let touch t line =
      let s = set_of t line in
      match List.assoc_opt line t.sets.(s) with
      | None -> ()
      | Some d ->
          t.sets.(s) <- (line, d) :: List.remove_assoc line t.sets.(s)

    let insert t line =
      let s = set_of t line in
      let evicted =
        if List.length t.sets.(s) >= t.ways then
          Some (fst (List.nth t.sets.(s) (List.length t.sets.(s) - 1)))
        else None
      in
      let remaining =
        match evicted with
        | Some v -> List.remove_assoc v t.sets.(s)
        | None -> t.sets.(s)
      in
      t.sets.(s) <- (line, false) :: remaining;
      evicted

    let invalidate t line =
      let s = set_of t line in
      t.sets.(s) <- List.remove_assoc line t.sets.(s)
  end in
  QCheck.Test.make ~count:200 ~name:"cache equals naive per-set LRU model"
    QCheck.(list_of_size Gen.(int_range 1 200) (pair (int_bound 2) (int_bound 63)))
    (fun ops ->
      (* 4 sets x 2 ways, lines 0..63. op kinds: 0 access, 1 invalidate,
         2 probe-check. *)
      let c = Cache.create (geo (4 * 2 * 64) 2) in
      let r = Ref.create ~nsets:4 ~ways:2 in
      List.for_all
        (fun (kind, line) ->
          match kind with
          | 0 ->
              (* access: hit -> touch both; miss -> insert both, victims
                 must agree. *)
              let model_hit = Ref.find r line in
              let real_hit = Cache.find c line >= 0 in
              if model_hit <> real_hit then false
              else if model_hit then begin
                Ref.touch r line;
                true
              end
              else begin
                let model_victim = Ref.insert r line in
                let real_victim =
                  match insert c line with
                  | Some (victim_line, _, _) -> Some victim_line
                  | None -> None
                in
                model_victim = real_victim
              end
          | 1 ->
              Ref.invalidate r line;
              let slot = Cache.probe c line in
              if slot >= 0 then Cache.invalidate_slot c slot;
              true
          | _ -> Ref.find r line = Cache.resident c line)
        ops)

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_cache_equals_reference_model ]
