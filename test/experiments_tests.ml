(* Integration smoke tests for the experiment drivers, on short windows of
   the scaled machine (tiny is too small for meaningful app behavior, but
   these only assert structure and invariants, not magnitudes). *)

open Ppp_core
open Ppp_experiments

let fast =
  Runner.Params.(
    default |> with_windows ~warmup:400_000 ~measure:1_200_000)

let fast_levels =
  [ { Ppp_apps.App.reads = 8; instrs = 4000 }; { reads = 128; instrs = 0 } ]

let test_registry_complete () =
  let ids = Registry.ids () in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " present") true (List.mem id ids))
    [ "table1"; "fig2"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10"; "pipeline"; "throttle"; "flowcache"; "classifier" ];
  Alcotest.(check bool) "find works" true (Registry.find "fig2" <> None);
  Alcotest.(check bool) "unknown" true (Registry.find "bogus" = None)

(* A one-cycle window completes no packet in most cells. Every registered
   experiment must then refuse with [Invalid_argument] rather than report
   numbers computed from an empty window. *)
let test_empty_window_finite_or_typed () =
  let params = Runner.Params.(quick |> with_windows ~warmup:0 ~measure:1) in
  List.iter
    (fun (e : Registry.t) ->
      match e.Registry.run ~params () with
      | (_ : Output.t) ->
          Alcotest.failf "%s reported a result from an empty window"
            e.Registry.id
      | exception Invalid_argument _ -> ())
    Registry.all

let test_table1_structure () =
  let profiles = Table1_exp.profiles ~params:fast () in
  Alcotest.(check int) "six rows" 6 (List.length profiles);
  List.iter
    (fun (p : Table1_exp.row) ->
      Alcotest.(check bool) "positive throughput" true (p.Table1_exp.throughput_pps > 0.0))
    profiles

let test_fig2_pairs_and_averages () =
  let data = Fig2_exp.measure ~params:fast () in
  Alcotest.(check int) "25 pairs" 25 (List.length data.Fig2_exp.pairs);
  Alcotest.(check int) "5 averages" 5 (List.length data.Fig2_exp.averages);
  (* FW must be the least sensitive target. *)
  let avg k = List.assoc k data.Fig2_exp.averages in
  Alcotest.(check bool) "MON most sensitive" true
    (avg Ppp_apps.App.MON >= avg Ppp_apps.App.FW)

let test_fig6_bound_holds () =
  let data = Fig6_exp.measure ~params:fast () in
  List.iter
    (fun (_, h, d) ->
      Alcotest.(check bool) "bound in [0,1)" true (d >= 0.0 && d < 1.0);
      Alcotest.(check bool) "hits nonnegative" true (h >= 0.0))
    data.Fig6_exp.app_points;
  (* Curves must be nondecreasing in hits/sec. *)
  let rec check_rows = function
    | (h1, d1) :: ((h2, d2) :: _ as rest) ->
        Alcotest.(check bool) "x increasing" true (h2 > h1);
        List.iter2
          (fun a b -> Alcotest.(check bool) "drop nondecreasing" true (b >= a))
          d1 d2;
        check_rows rest
    | _ -> ()
  in
  check_rows data.Fig6_exp.curve_samples

let test_fig5_deviation_bounded () =
  (* Structural check on a very small configuration: the realistic points
     must come with curve values, and the deviation metric must be the max. *)
  let params = { fast with Runner.measure_cycles = 800_000 } in
  let data = Fig5_exp.measure ~params () in
  Alcotest.(check int) "25 checks" 25 (List.length data.Fig5_exp.checks);
  let dev = Fig5_exp.max_deviation data in
  List.iter
    (fun c ->
      Alcotest.(check bool) "max is max" true
        (Float.abs (c.Fig5_exp.measured_drop -. c.Fig5_exp.curve_drop) <= dev +. 1e-12))
    data.Fig5_exp.checks

let test_fig9_errors_defined () =
  let data = Fig9_exp.measure ~params:fast () in
  Alcotest.(check int) "six flows" 6 (List.length data.Fig9_exp.flows);
  Alcotest.(check bool) "max error is bound" true
    (List.for_all
       (fun f ->
         Float.abs (f.Fig9_exp.predicted_drop -. f.Fig9_exp.measured_drop)
         <= data.Fig9_exp.max_error +. 1e-12)
       data.Fig9_exp.flows)

let test_fig10_combos () =
  let params = fast in
  let combos = [ Ppp_apps.App.[ (MON, 6); (FW, 6) ] ] in
  let data = Fig10_exp.measure ~params ~combos () in
  Alcotest.(check int) "one combo" 1 (List.length data.Fig10_exp.combos);
  let c = List.hd data.Fig10_exp.combos in
  Alcotest.(check bool) "best <= worst" true
    (c.Fig10_exp.best.Scheduler.avg_drop
    <= c.Fig10_exp.worst.Scheduler.avg_drop)

let test_pipeline_shapes () =
  let data = Pipeline_exp.measure ~params:fast () in
  Alcotest.(check bool) "parallel IP more efficient per core" true
    (data.Pipeline_exp.ip_parallel.Pipeline_exp.per_core_pps
    > data.Pipeline_exp.ip_pipeline.Pipeline_exp.per_core_pps);
  Alcotest.(check bool) "pipelining costs extra cache refs" true
    (data.Pipeline_exp.extra_refs_per_packet > 0.0);
  Alcotest.(check bool) "contrived workload prefers pipeline" true
    (data.Pipeline_exp.syn_pipeline.Pipeline_exp.per_core_pps
    > data.Pipeline_exp.syn_parallel.Pipeline_exp.per_core_pps)

let test_throttle_contains () =
  let data = Throttle_exp.measure ~params:fast () in
  Alcotest.(check bool) "attack hurts the victim" true
    (data.Throttle_exp.victim_with_loud_pps
    < data.Throttle_exp.victim_with_tame_pps);
  Alcotest.(check bool) "throttling restores the victim" true
    (data.Throttle_exp.victim_with_throttled_pps
    > data.Throttle_exp.victim_with_loud_pps);
  Alcotest.(check bool) "attacker rate within budget" true
    (data.Throttle_exp.attacker_throttled_refs
    <= data.Throttle_exp.attacker_refs_budget *. 1.05)

let test_classifier_structure () =
  (* The sweep is 2 backends x 2 rule sizes x 2 skews = 8 cells, and within
     each (backend, rules) pair the Zipf-skewed traffic must cache at least
     as well as the uniform traffic. *)
  let data = Classifier_exp.measure ~params:fast () in
  let cells = data.Classifier_exp.cells in
  Alcotest.(check int) "eight cells" 8 (List.length cells);
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b ^ " backend present") true
        (List.exists (fun c -> c.Classifier_exp.backend = b) cells))
    [ "tss"; "range" ];
  List.iter
    (fun (c : Classifier_exp.cell) ->
      Alcotest.(check bool) "hit rate in [0,1]" true
        (c.Classifier_exp.hit_rate >= 0.0 && c.Classifier_exp.hit_rate <= 1.0);
      Alcotest.(check bool) "upcall rate nonnegative" true
        (c.Classifier_exp.upcalls_per_packet >= 0.0);
      Alcotest.(check bool) "positive solo throughput" true
        (c.Classifier_exp.solo_pps > 0.0))
    cells;
  List.iter
    (fun (c : Classifier_exp.cell) ->
      if c.Classifier_exp.skew > 1.0 then
        let uniform =
          List.find
            (fun (u : Classifier_exp.cell) ->
              u.Classifier_exp.backend = c.Classifier_exp.backend
              && u.Classifier_exp.rules = c.Classifier_exp.rules
              && u.Classifier_exp.skew = 0.0)
            cells
        in
        Alcotest.(check bool) "skewed traffic hits at least as often" true
          (c.Classifier_exp.hit_rate >= uniform.Classifier_exp.hit_rate))
    cells

let test_fig4_monotone_cache_curves () =
  let data =
    Fig4_exp.measure ~params:fast ~levels:fast_levels
      ~targets:[ Ppp_apps.App.MON ] ()
  in
  List.iter
    (fun (resource, curves) ->
      List.iter
        (fun (c : Sensitivity.curve) ->
          let drops = List.map (fun p -> p.Sensitivity.drop) c.Sensitivity.points in
          List.iter
            (fun d -> Alcotest.(check bool) "drop sane" true (d > -0.05 && d < 1.0))
            drops;
          if resource = Sensitivity.Cache_only || resource = Sensitivity.Both
          then
            (* More competition should not massively help the target. *)
            let last = List.nth drops (List.length drops - 1) in
            Alcotest.(check bool) "aggressive SYN hurts" true (last > 0.0))
        curves)
    data

let test_fig7_conversion_bounds () =
  let params = fast in
  let data = Fig7_exp.measure ~params () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "measured in [0,1]" true
        (r.Fig7_exp.measured >= 0.0 && r.Fig7_exp.measured <= 1.0);
      Alcotest.(check bool) "model in [0,1]" true
        (r.Fig7_exp.model >= 0.0 && r.Fig7_exp.model <= 1.0);
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "per-fn in [0,1]" true (v >= 0.0 && v <= 1.0))
        r.Fig7_exp.per_fn)
    data.Fig7_exp.rows

let test_fig8_quick_errors_structurally_sound () =
  (* Use only two kinds to keep this quick: the invariants are structural. *)
  let params = fast in
  let p = Predictor.build ~params ~levels:fast_levels ~targets:[ Ppp_apps.App.FW ] () in
  let drop = Predictor.predict_drop p ~target:Ppp_apps.App.FW ~competitors:[ Ppp_apps.App.FW ] in
  Alcotest.(check bool) "drop in [0,1)" true (drop >= 0.0 && drop < 1.0)

let tests =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "empty window: finite or Invalid_argument" `Quick
      test_empty_window_finite_or_typed;
    Alcotest.test_case "table1 structure" `Slow test_table1_structure;
    Alcotest.test_case "fig2 pairs/averages" `Slow test_fig2_pairs_and_averages;
    Alcotest.test_case "fig4 curves sane" `Slow test_fig4_monotone_cache_curves;
    Alcotest.test_case "fig5 deviations" `Slow test_fig5_deviation_bounded;
    Alcotest.test_case "fig6 bound" `Slow test_fig6_bound_holds;
    Alcotest.test_case "fig7 conversion bounds" `Slow test_fig7_conversion_bounds;
    Alcotest.test_case "fig8 quick prediction" `Slow test_fig8_quick_errors_structurally_sound;
    Alcotest.test_case "fig9 mixed workload" `Slow test_fig9_errors_defined;
    Alcotest.test_case "fig10 combos" `Slow test_fig10_combos;
    Alcotest.test_case "pipeline shapes" `Slow test_pipeline_shapes;
    Alcotest.test_case "throttle contains" `Slow test_throttle_contains;
    Alcotest.test_case "classifier structure" `Slow test_classifier_structure;
  ]
