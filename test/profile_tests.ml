(* The per-function-tag attribution profiler's contract, in three parts:

   1. Conservation — for every core, the per-tag sums of instructions /
      L3 hits / L3 misses equal the engine window's {!Counters.diff}, the
      per-tag cycles sum to [window_cycles], and the per-tag latency
      histograms' totals sum to the packet latency total. Exact, for random
      flow sets, seeds and batch sizes.
   2. Purity — attribution reads the simulation but never perturbs it:
      results with [?attrib] are identical to results without.
   3. Determinism — the user-facing exports (folded stacks, hot-spot
      report) are byte-identical under --jobs 4 --batch 32 and
      --jobs 1 --batch 1, because everything is keyed by tag name. *)

open Ppp_hw

let run_attributed ?(reorder_every = 0) ~batch ~seed kind_ixs =
  let config = Machine.tiny in
  let hier = Machine.build config in
  let flows = Engine_equiv_tests.mk_flows ~config ~seed kind_ixs in
  let flows =
    if reorder_every <= 0 then flows
    else
      (* Relabel every Nth packet as Reordered — the detector's verdict is
         just a tag on the item, so this exercises the partitioned latency
         columns deterministically. *)
      List.map
        (fun (f : Engine.flow) ->
          let inner = f.Engine.source in
          let n = ref 0 in
          let source now =
            match inner now with
            | Engine.Packet t ->
                incr n;
                if !n mod reorder_every = 0 then Engine.Reordered t
                else Engine.Packet t
            | it -> it
          in
          { f with Engine.source })
        flows
  in
  let attrib = Attrib.create ~cores:(Topology.cores config.Machine.topology) in
  let results =
    Engine.run ~attrib ~batch hier ~flows ~warmup_cycles:20_000
      ~measure_cycles:60_000
  in
  (attrib, results)

let sum_tags at ~core read =
  let acc = ref 0 in
  for fn = 0 to Fn.count () - 1 do
    acc := !acc + read at ~core ~fn
  done;
  !acc

let check_conservation name (at, results) =
  List.iter
    (fun (r : Engine.result) ->
      let core = r.Engine.core in
      let ctx what = Printf.sprintf "%s: core %d %s" name core what in
      Alcotest.(check int) (ctx "instructions conserved")
        (Counters.instructions r.Engine.counters)
        (sum_tags at ~core Attrib.instructions);
      Alcotest.(check int) (ctx "L3 hits conserved")
        (Counters.l3_hits r.Engine.counters)
        (sum_tags at ~core Attrib.l3_hits);
      Alcotest.(check int) (ctx "L3 misses conserved")
        (Counters.l3_misses r.Engine.counters)
        (sum_tags at ~core Attrib.l3_misses);
      Alcotest.(check int) (ctx "cycles sum to the window")
        r.Engine.window_cycles
        (sum_tags at ~core Attrib.cycles);
      (* Each in-window packet records its per-tag time into each touched
         tag's histogram; summed over tags that must reproduce the engine's
         packet latency total exactly. *)
      let lat_total = ref 0 in
      for fn = 0 to Fn.count () - 1 do
        match Attrib.latency at ~core ~fn with
        | Some h -> lat_total := !lat_total + Ppp_util.Histogram.total h
        | None -> ()
      done;
      Alcotest.(check int) (ctx "per-tag latency sums to packet latency")
        (Ppp_util.Histogram.total r.Engine.latency)
        !lat_total)
    results

let test_conservation_pair () =
  check_conservation "IP+MON batch 32"
    (run_attributed ~batch:32 ~seed:42 [ 0; 1 ]);
  check_conservation "FW solo batch 1" (run_attributed ~batch:1 ~seed:7 [ 2 ])

let prop_conservation =
  QCheck.Test.make ~count:8
    ~name:"profiler conservation: random flows x seed x batch"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 4) (int_bound 100))
        small_nat
        (QCheck.make (QCheck.Gen.oneofl [ 1; 2; 7; 32 ])))
    (fun (kind_ixs, seed, batch) ->
      let at, results = run_attributed ~batch ~seed kind_ixs in
      List.for_all
        (fun (r : Engine.result) ->
          let core = r.Engine.core in
          sum_tags at ~core Attrib.instructions
          = Counters.instructions r.Engine.counters
          && sum_tags at ~core Attrib.l3_hits
             = Counters.l3_hits r.Engine.counters
          && sum_tags at ~core Attrib.l3_misses
             = Counters.l3_misses r.Engine.counters
          && sum_tags at ~core Attrib.cycles = r.Engine.window_cycles)
        results)

(* One FlowClassifier element issues two tags, the fast path's and the
   upcall's, so it profiles as two rows. A 16-entry table over 64 flows
   keeps both paths busy inside the window. The L3 columns are the window
   counters' per-tag tallies, for every tag. *)
let test_fastpath_split () =
  let open Ppp_classify in
  let config = Machine.tiny in
  let hier = Machine.build config in
  let heap = Ppp_simmem.Heap.create ~node:0 in
  let rng = Ppp_util.Rng.create ~seed:42 in
  let rules = Rulegen.make ~rng:(Ppp_util.Rng.split rng) ~n:64 in
  let fp =
    Fastpath.create ~heap ~table_entries:16
      ~backend:(List.hd Classifier.all) rules
  in
  let frng = Ppp_util.Rng.split rng in
  let flowids =
    Array.init 64 (fun i -> Rulegen.flowid_matching ~rng:frng rules.(i))
  in
  let source =
    Ppp_traffic.Source.make
      ~fill:(fun _ pkt ->
        let f = flowids.(Ppp_util.Rng.int frng 64) in
        Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:f.Ppp_net.Flowid.src
          ~dst:f.Ppp_net.Flowid.dst ~sport:f.Ppp_net.Flowid.sport
          ~dport:f.Ppp_net.Flowid.dport ~wire_len:64;
        Ppp_traffic.Source.Filled)
      ()
  in
  let flow =
    Ppp_click.Flow.create ~heap ~label:"classifier" ~source
      ~elements:[ Fastpath.element fp ] ()
  in
  let at = Attrib.create ~cores:(Topology.cores config.Machine.topology) in
  let r =
    match
      Engine.run ~attrib:at hier
        ~flows:
          [ { Engine.core = 0; label = "classifier";
              source = Ppp_click.Flow.source flow } ]
        ~warmup_cycles:20_000 ~measure_cycles:60_000
    with
    | [ r ] -> r
    | _ -> Alcotest.fail "one flow, one result"
  in
  List.iter
    (fun fn ->
      Alcotest.(check bool)
        (Fn.name fn ^ " accrues cycles") true
        (Attrib.cycles at ~core:0 ~fn > 0))
    [ Fastpath.fn_fast; Fastpath.fn_upcall ];
  for fn = 0 to Fn.count () - 1 do
    let what col = Printf.sprintf "%s %s = window counters" (Fn.name fn) col in
    Alcotest.(check int) (what "L3 hits")
      (Counters.fn_l3_hits r.Engine.counters fn)
      (Attrib.l3_hits at ~core:0 ~fn);
    Alcotest.(check int) (what "L3 misses")
      (Counters.fn_l3_misses r.Engine.counters fn)
      (Attrib.l3_misses at ~core:0 ~fn)
  done;
  Alcotest.(check int) "cycles sum to the window" r.Engine.window_cycles
    (sum_tags at ~core:0 Attrib.cycles)

(* Attribution must not perturb the simulation: with and without [?attrib],
   the engine's results are identical (the full fingerprint, histograms
   compared via their exact endpoints). *)
let fingerprint (r : Engine.result) =
  ( ( r.Engine.core,
      r.Engine.label,
      r.Engine.packets,
      r.Engine.window_cycles,
      r.Engine.engine_ops ),
    ( Counters.instructions r.Engine.counters,
      Counters.mem_refs r.Engine.counters,
      Counters.l3_hits r.Engine.counters,
      Counters.l3_misses r.Engine.counters ),
    ( Ppp_util.Histogram.count r.Engine.latency,
      Ppp_util.Histogram.total r.Engine.latency,
      Ppp_util.Histogram.percentile r.Engine.latency 0.0,
      Ppp_util.Histogram.percentile r.Engine.latency 100.0 ) )

let test_attrib_pure () =
  let config = Machine.tiny in
  let run ~attrib =
    let hier = Machine.build config in
    let flows = Engine_equiv_tests.mk_flows ~config ~seed:42 [ 0; 3 ] in
    let attrib =
      if attrib then
        Some (Attrib.create ~cores:(Topology.cores config.Machine.topology))
      else None
    in
    List.map fingerprint
      (Engine.run ?attrib ~batch:32 hier ~flows ~warmup_cycles:20_000
         ~measure_cycles:60_000)
  in
  Alcotest.(check bool)
    "results identical with and without attribution" true
    (run ~attrib:false = run ~attrib:true)

(* The reordered/in-order latency columns partition the latency histogram
   exactly: counts, totals and the extreme percentiles all reconcile. *)
let test_latency_partition () =
  let _, results = run_attributed ~reorder_every:3 ~batch:32 ~seed:42 [ 0; 1 ] in
  List.iter
    (fun (r : Engine.result) ->
      let h = Ppp_util.Histogram.count in
      let t = Ppp_util.Histogram.total in
      Alcotest.(check int) "counts partition"
        (h r.Engine.latency)
        (h r.Engine.latency_inorder + h r.Engine.latency_reordered);
      Alcotest.(check int) "totals partition"
        (t r.Engine.latency)
        (t r.Engine.latency_inorder + t r.Engine.latency_reordered);
      Alcotest.(check bool) "reordered packets actually landed" true
        (h r.Engine.latency = 0 || h r.Engine.latency_reordered > 0);
      Alcotest.(check int) "max is the max of the two columns"
        (Ppp_util.Histogram.exact_max r.Engine.latency)
        (max
           (Ppp_util.Histogram.exact_max r.Engine.latency_inorder)
           (Ppp_util.Histogram.exact_max r.Engine.latency_reordered)))
    results

(* The exports' determinism pin: fig2 profiled under --jobs 4 --batch 32
   renders the same folded stacks and hot-spot report as --jobs 1 --batch 1.
   Rows are keyed and sorted by tag name, never by tag number. *)
let with_jobs n f =
  let prev = Ppp_core.Parallel.configured_jobs () in
  Ppp_core.Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Ppp_core.Parallel.set_jobs prev) f

let profile_exports ~jobs ~batch =
  with_jobs jobs (fun () ->
      Ppp_telemetry.Recorder.clear_data ();
      match Ppp_experiments.Registry.find "fig2" with
      | None -> Alcotest.fail "fig2 not registered"
      | Some e ->
          let params =
            Ppp_core.Runner.Params.(
              quick |> with_batch batch |> with_profile true)
          in
          ignore (e.Ppp_experiments.Registry.run ~params ()
                   : Ppp_experiments.Output.t);
          let entries = Ppp_telemetry.Recorder.profile () in
          Ppp_telemetry.Recorder.clear_data ();
          ( Ppp_telemetry.Profile.folded_cycles entries,
            Ppp_telemetry.Profile.folded_l3_misses entries,
            Ppp_telemetry.Profile.top ~title:"fig2" entries ))

let test_export_determinism () =
  let c1, m1, t1 = profile_exports ~jobs:1 ~batch:1 in
  let c4, m4, t4 = profile_exports ~jobs:4 ~batch:32 in
  Alcotest.(check string)
    "folded cycles: jobs 4 batch 32 == jobs 1 batch 1" c1 c4;
  Alcotest.(check string)
    "folded L3 misses: jobs 4 batch 32 == jobs 1 batch 1" m1 m4;
  Alcotest.(check string)
    "hot-spot report: jobs 4 batch 32 == jobs 1 batch 1" t1 t4;
  Alcotest.(check bool) "folded stacks non-empty" true (String.length c1 > 0)

let tests =
  [
    Alcotest.test_case "conservation on pinned workloads" `Quick
      test_conservation_pair;
    QCheck_alcotest.to_alcotest prop_conservation;
    Alcotest.test_case "fast path and upcall profile as two tags" `Quick
      test_fastpath_split;
    Alcotest.test_case "attribution is pure observation" `Quick
      test_attrib_pure;
    Alcotest.test_case "latency partitions in-order/reordered" `Quick
      test_latency_partition;
    Alcotest.test_case "exports byte-identical across jobs x batch" `Quick
      test_export_determinism;
  ]
