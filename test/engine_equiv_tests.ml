(* The optimized engine (heap scheduler, sentinel cache probes, hoisted
   counters, raw trace decode) against the pre-optimization loop kept
   verbatim in Ref_engine: for random flow sets, seeds and probe grids the
   two must produce the same result list — including [engine_ops], the
   count of replayed trace operations — and the same probe samples in the
   same order. This is what licenses every hot-path change: faster, but
   observationally identical. *)

open Ppp_hw

let kinds = Ppp_apps.App.[ IP; MON; FW; RE; VPN ]

let mk_flows ~config ~seed kind_ixs =
  let heap = Ppp_simmem.Heap.create ~node:0 in
  let rng = Ppp_util.Rng.create ~seed in
  List.mapi
    (fun core ix ->
      let kind = List.nth kinds (ix mod List.length kinds) in
      let label = Printf.sprintf "%s#%d" (Ppp_apps.App.name kind) core in
      let flow =
        Ppp_apps.App.flow kind ~heap ~rng:(Ppp_util.Rng.split rng)
          ~scale:config.Machine.scale ~label ()
      in
      { Engine.core; label; source = Ppp_click.Flow.source flow })
    kind_ixs

(* Everything a result carries, reduced to comparable scalars; histograms
   compare via their extreme percentiles. *)
let result_fingerprint (r : Engine.result) =
  ( ( r.Engine.core,
      r.Engine.label,
      r.Engine.packets,
      r.Engine.window_cycles,
      r.Engine.engine_ops ),
    ( Counters.instructions r.Engine.counters,
      Counters.mem_refs r.Engine.counters,
      Counters.l2_hits r.Engine.counters,
      Counters.l3_hits r.Engine.counters,
      Counters.l3_misses r.Engine.counters,
      Counters.packets r.Engine.counters ),
    ( Ppp_util.Histogram.percentile r.Engine.latency 0.0,
      Ppp_util.Histogram.percentile r.Engine.latency 50.0,
      Ppp_util.Histogram.percentile r.Engine.latency 99.0,
      Ppp_util.Histogram.percentile r.Engine.latency 100.0 ) )

let sample_fingerprint (s : Engine.sample) =
  ( (s.Engine.s_core, s.Engine.s_flow, s.Engine.s_start, s.Engine.s_end),
    ( s.Engine.s_packets,
      Counters.mem_refs s.Engine.s_delta,
      Counters.l3_refs s.Engine.s_delta,
      Ppp_util.Histogram.percentile s.Engine.s_latency 50.0 ) )

let run_once engine ~seed ~kind_ixs ~sample_cycles =
  let config = Machine.tiny in
  let hier = Machine.build config in
  let flows = mk_flows ~config ~seed kind_ixs in
  let samples = ref [] in
  let probe =
    match sample_cycles with
    | None -> None
    | Some k ->
        Some
          {
            Engine.sample_cycles = k;
            on_sample = (fun s -> samples := sample_fingerprint s :: !samples);
          }
  in
  let results =
    engine ?probe hier ~flows ~warmup_cycles:20_000 ~measure_cycles:60_000
  in
  (List.map result_fingerprint results, List.rev !samples)

(* The engine's contract is that [batch] can never be observable: the
   run-ahead horizon fixes the interleaving and the batch size only caps
   burst length. So every batch size — including 1, the degenerate
   op-at-a-time case — must match the reference byte for byte. *)
let batches = [ 1; 2; 7; 32; 256 ]

let batched b ?probe hier ~flows ~warmup_cycles ~measure_cycles =
  Engine.run ?probe ~batch:b hier ~flows ~warmup_cycles ~measure_cycles

let prop_equiv =
  QCheck.Test.make ~count:12
    ~name:
      "batched engine = reference engine, batch in {1,2,7,32,256} (results \
       + probe samples)"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 4) (int_bound 100))
        small_nat
        (option (int_range 1_000 30_000)))
    (fun (kind_ixs, seed, sample_cycles) ->
      let reference =
        run_once Ref_engine.run ~seed ~kind_ixs ~sample_cycles
      in
      List.for_all
        (fun b ->
          run_once (batched b) ~seed ~kind_ixs ~sample_cycles = reference)
        batches)

(* Same check on the one deterministic corner qcheck rarely draws: every
   realistic type at once, filling all four tiny cores. *)
let test_equiv_full_machine () =
  let kind_ixs = [ 0; 1; 2; 3 ] in
  let reference =
    run_once Ref_engine.run ~seed:7 ~kind_ixs ~sample_cycles:(Some 7_500)
  in
  List.iter
    (fun b ->
      let optimized =
        run_once (batched b) ~seed:7 ~kind_ixs ~sample_cycles:(Some 7_500)
      in
      Alcotest.(check bool)
        (Printf.sprintf "4-core co-run identical at batch %d" b)
        true
        (reference = optimized))
    batches

let tests =
  [
    QCheck_alcotest.to_alcotest prop_equiv;
    Alcotest.test_case "full tiny machine co-run" `Quick
      test_equiv_full_machine;
  ]
