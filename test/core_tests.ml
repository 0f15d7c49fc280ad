open Ppp_core

let quick = Runner.Params.quick

(* --- Equation 1 --- *)

let test_eq1_zero_cases () =
  Alcotest.(check (float 1e-12)) "no hits" 0.0
    (Equation1.drop ~delta:43.75e-9 ~kappa:1.0 ~hits_per_sec:0.0);
  Alcotest.(check (float 1e-12)) "no conversion" 0.0
    (Equation1.drop ~delta:43.75e-9 ~kappa:0.0 ~hits_per_sec:1e7)

let test_eq1_paper_point () =
  (* The paper: 20M hits/sec at delta = 43.75ns gives at most ~47%. *)
  let d = Equation1.max_drop ~delta:Equation1.paper_delta ~hits_per_sec:20e6 in
  Alcotest.(check bool) "close to 47%" true (d > 0.46 && d < 0.48)

let test_eq1_monotone_in_everything () =
  let d1 = Equation1.drop ~delta:30e-9 ~kappa:0.5 ~hits_per_sec:1e7 in
  let d2 = Equation1.drop ~delta:60e-9 ~kappa:0.5 ~hits_per_sec:1e7 in
  let d3 = Equation1.drop ~delta:30e-9 ~kappa:0.9 ~hits_per_sec:1e7 in
  let d4 = Equation1.drop ~delta:30e-9 ~kappa:0.5 ~hits_per_sec:2e7 in
  Alcotest.(check bool) "delta" true (d2 > d1);
  Alcotest.(check bool) "kappa" true (d3 > d1);
  Alcotest.(check bool) "hits" true (d4 > d1)

let test_eq1_validates () =
  Alcotest.check_raises "kappa > 1" (Invalid_argument "Equation1.drop")
    (fun () -> ignore (Equation1.drop ~delta:1e-9 ~kappa:1.5 ~hits_per_sec:1.0))

let prop_eq1_bounded =
  QCheck.Test.make ~count:300 ~name:"Equation 1 drop in [0,1)"
    QCheck.(
      triple (float_bound_inclusive 1e-7) (float_bound_inclusive 1.0)
        (float_bound_inclusive 1e9))
    (fun (delta, kappa, h) ->
      let d = Equation1.drop ~delta ~kappa ~hits_per_sec:h in
      d >= 0.0 && d < 1.0)

(* --- Cache model --- *)

let test_model_no_competition () =
  Alcotest.(check (float 1e-9)) "p_hit = 1" 1.0
    (Cache_model.p_hit ~cache_lines:1000 ~chunks:100 ~target_hits_per_sec:1e6
       ~competing_refs_per_sec:0.0)

let test_model_conversion_increases () =
  let conv rc =
    Cache_model.conversion_rate ~cache_lines:24576 ~chunks:30000
      ~target_hits_per_sec:1e7 ~competing_refs_per_sec:rc
  in
  Alcotest.(check bool) "monotone" true (conv 1e6 < conv 1e7 && conv 1e7 < conv 1e8)

let test_model_shape_knee () =
  (* The model must show a sharp rise then saturation: the increase from 0
     to 50M must dwarf the one from 50M to 100M (Section 3.3). *)
  let conv rc =
    Cache_model.conversion_rate ~cache_lines:24576 ~chunks:30000
      ~target_hits_per_sec:1e7 ~competing_refs_per_sec:rc
  in
  let rise1 = conv 50e6 -. conv 0.0 in
  let rise2 = conv 100e6 -. conv 50e6 in
  Alcotest.(check bool) "steep then flat" true (rise1 > 4.0 *. rise2)

let test_model_curves_bounded () =
  let c =
    Cache_model.conversion_curve ~cache_lines:1024 ~chunks:2048
      ~target_hits_per_sec:5e6 ~max_refs_per_sec:2e8 ~samples:21
  in
  let ys = Array.map snd (Ppp_util.Series.points c) in
  Array.iter
    (fun y -> Alcotest.(check bool) "in [0,1]" true (y >= 0.0 && y <= 1.0))
    ys;
  Array.iteri
    (fun i y ->
      if i > 0 then Alcotest.(check bool) "monotone" true (y >= ys.(i - 1)))
    ys

let test_model_drop_curve_consistent () =
  let delta = Equation1.paper_delta in
  let dc =
    Cache_model.drop_curve ~delta ~cache_lines:1024 ~chunks:2048
      ~target_hits_per_sec:5e6 ~max_refs_per_sec:2e8 ~samples:5
  in
  (* Drop is bounded by the kappa=1 Equation-1 value. *)
  let bound = Equation1.max_drop ~delta ~hits_per_sec:5e6 in
  Array.iter
    (fun (_, y) -> Alcotest.(check bool) "below worst case" true (y <= bound +. 1e-9))
    (Ppp_util.Series.points dc)

(* --- Runner --- *)

let test_runner_solo_sane () =
  let r = Runner.solo ~params:quick Ppp_apps.App.IP in
  Alcotest.(check bool) "positive throughput" true (r.Ppp_hw.Engine.throughput_pps > 0.0);
  Alcotest.(check bool) "packets measured" true (r.Ppp_hw.Engine.packets > 0)

let test_runner_determinism () =
  let a = Runner.solo ~params:quick Ppp_apps.App.IP in
  let b = Runner.solo ~params:quick Ppp_apps.App.IP in
  Alcotest.(check int) "same packets" a.Ppp_hw.Engine.packets b.Ppp_hw.Engine.packets

let test_runner_rejects_bad_core () =
  Alcotest.check_raises "core range" (Invalid_argument "Runner.run: core out of range")
    (fun () ->
      ignore (Runner.run ~params:quick [ { Runner.kind = Ppp_apps.App.IP; core = 99; data_node = 0 } ]))

let test_runner_rejects_bad_params () =
  let rejects what msg params =
    Alcotest.check_raises what (Invalid_argument ("Runner.run: " ^ msg))
      (fun () -> ignore (Runner.run ~params [ Runner.flow_on ~node:0 ~core:0 Ppp_apps.App.IP ]))
  in
  rejects "negative warmup" "warmup window must be >= 0 cycles, got -5"
    Runner.Params.(quick |> with_windows ~warmup:(-5) ~measure:1_000);
  rejects "empty window" "measurement window must be >= 1 cycle, got 0"
    Runner.Params.(quick |> with_windows ~warmup:0 ~measure:0);
  rejects "zero batch" "batch must be >= 1, got 0" Runner.Params.(quick |> with_batch 0)

let test_runner_corun_drop_positive () =
  let solo = Runner.solo ~params:quick Ppp_apps.App.MON in
  let specs =
    List.init 2 (fun i -> { Runner.kind = Ppp_apps.App.MON; core = i; data_node = 0 })
  in
  match Runner.run ~params:quick specs with
  | t :: _ ->
      let d = Runner.drop ~solo ~corun:t in
      Alcotest.(check bool) "drop >= 0" true (d >= -0.02)
  | [] -> Alcotest.fail "no results"

(* One cycle is a valid window but completes no packet: no drop exists. *)
let test_runner_drop_rejects_empty_solo () =
  let params = Runner.Params.(quick |> with_windows ~warmup:0 ~measure:1) in
  let solo = Runner.solo ~params Ppp_apps.App.MON in
  Alcotest.check_raises "no solo packets"
    (Invalid_argument
       "Runner.drop: solo run completed no packets in its measurement window")
    (fun () -> ignore (Runner.drop ~solo ~corun:solo))

let test_competing_refs_sums_others () =
  let specs =
    List.init 2 (fun i -> { Runner.kind = Ppp_apps.App.IP; core = i; data_node = 0 })
  in
  let results = Runner.run ~params:quick specs in
  match results with
  | [ a; b ] ->
      Alcotest.(check (float 1.0)) "sums the other flow"
        b.Ppp_hw.Engine.l3_refs_per_sec
        (Runner.competing_refs_per_sec results ~target:a)
  | _ -> Alcotest.fail "two results"

(* --- Profile --- *)

module Table1 = Ppp_experiments.Table1_exp

let test_profile_consistency () =
  let r = Runner.solo ~params:quick Ppp_apps.App.MON in
  let p = Table1.of_result Ppp_apps.App.MON r in
  Alcotest.(check bool) "cycles/packet positive" true (p.Table1.cycles_per_packet > 0.0);
  Alcotest.(check bool) "refs >= hits" true
    (p.Table1.l3_refs_per_sec >= p.Table1.l3_hits_per_sec);
  let refs = float_of_int (Ppp_hw.Counters.l3_refs r.Ppp_hw.Engine.counters) in
  Alcotest.(check (float (1e-9 *. refs))) "refs/packet x packets = L3 refs"
    refs
    (p.Table1.l3_refs_per_packet *. float_of_int r.Ppp_hw.Engine.packets)

let test_profile_table_renders () =
  let ip = Runner.solo ~params:quick Ppp_apps.App.IP in
  let s = Table1.render [ Table1.of_result Ppp_apps.App.IP ip ] in
  Alcotest.(check bool) "mentions IP" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "IP"))

(* --- Sensitivity --- *)

let test_placement_shapes () =
  let config = Ppp_hw.Machine.tiny in
  let check resource expected_cores expected_nodes =
    let specs =
      Sensitivity.competitors ~config resource Ppp_apps.App.syn_max
    in
    let cores = List.map (fun s -> s.Runner.core) specs in
    let nodes = List.map (fun s -> s.Runner.data_node) specs in
    Alcotest.(check (list int)) "cores" expected_cores cores;
    Alcotest.(check (list int)) "nodes" expected_nodes nodes
  in
  (* tiny: 2 sockets x 2 cores, so one co-runner beside the target on core
     0, node 0. *)
  check Sensitivity.Cache_only [ 1 ] [ 1 ];
  check Sensitivity.Memctrl_only [ 2 ] [ 0 ];
  check Sensitivity.Both [ 1 ] [ 0 ]

let test_sensitivity_curve_structure () =
  let levels = [ { Ppp_apps.App.reads = 4; instrs = 4000 }; { reads = 64; instrs = 0 } ] in
  let solo = Runner.solo ~params:quick Ppp_apps.App.MON in
  let c =
    Sensitivity.measure ~params:quick ~levels ~resource:Sensitivity.Both
      ~solo Ppp_apps.App.MON
  in
  Alcotest.(check (float 0.0)) "baseline is the given solo run"
    solo.Ppp_hw.Engine.throughput_pps c.Sensitivity.solo_pps;
  Alcotest.(check int) "origin + 2 levels" 3 (List.length c.Sensitivity.points);
  let first = List.hd c.Sensitivity.points in
  Alcotest.(check (float 1e-9)) "origin" 0.0 first.Sensitivity.competing_refs_per_sec;
  let xs = List.map (fun p -> p.Sensitivity.competing_refs_per_sec) c.Sensitivity.points in
  Alcotest.(check bool) "x sorted" true (List.sort compare xs = xs)

(* --- Predictor --- *)

let test_predictor_math () =
  (* Hand-built predictor state via the public API on a tiny machine. *)
  let levels = [ { Ppp_apps.App.reads = 8; instrs = 2000 }; { reads = 64; instrs = 0 } ] in
  let p =
    Predictor.build ~params:quick ~levels ~targets:[ Ppp_apps.App.MON; Ppp_apps.App.FW ] ()
  in
  let refs_fw = Predictor.solo_refs_per_sec p Ppp_apps.App.FW in
  Alcotest.(check bool) "solo refs positive" true (refs_fw > 0.0);
  Alcotest.(check (float 0.0)) "solo refs read from the kept solo run"
    (Runner.solo ~params:quick Ppp_apps.App.FW).Ppp_hw.Engine.l3_refs_per_sec
    refs_fw;
  let d1 = Predictor.predict_drop p ~target:Ppp_apps.App.MON ~competitors:[ Ppp_apps.App.FW ] in
  let d3 =
    Predictor.predict_drop p ~target:Ppp_apps.App.MON
      ~competitors:[ Ppp_apps.App.FW; Ppp_apps.App.FW; Ppp_apps.App.FW ]
  in
  Alcotest.(check bool) "more competitors, no less drop" true (d3 >= d1 -. 1e-9);
  (* predict_drop equals curve evaluated at summed solo refs. *)
  Alcotest.(check (float 1e-9)) "definition"
    (Predictor.predict_drop_at p ~target:Ppp_apps.App.MON ~refs_per_sec:(3.0 *. refs_fw))
    d3

let test_predictor_unknown_kind () =
  let p = Predictor.build ~params:quick ~levels:[ { Ppp_apps.App.reads = 8; instrs = 0 } ]
      ~targets:[ Ppp_apps.App.FW ] ()
  in
  Alcotest.check_raises "unknown" (Invalid_argument "Predictor: kind MON was not profiled")
    (fun () -> ignore (Predictor.solo_refs_per_sec p Ppp_apps.App.MON))

let test_predictor_throughput () =
  let p = Predictor.build ~params:quick ~levels:[ { Ppp_apps.App.reads = 8; instrs = 0 } ]
      ~targets:[ Ppp_apps.App.FW ] ()
  in
  let tput =
    Predictor.predict_throughput p ~target:Ppp_apps.App.FW ~competitors:[ Ppp_apps.App.FW ]
  in
  Alcotest.(check bool) "below solo" true
    (tput <= Predictor.solo_throughput p Ppp_apps.App.FW)

(* --- Scheduler --- *)

let test_scheduler_splits_enumeration () =
  (* tiny machine: 2 sockets x 2 cores, combo 2A + 2B.
     Distinct splits up to socket swap: {AA|BB}, {AB|AB} -> 2. *)
  let combo = [ (Ppp_apps.App.MON, 2); (Ppp_apps.App.FW, 2) ] in
  let splits = Scheduler.splits ~config:Ppp_hw.Machine.tiny combo in
  Alcotest.(check int) "two distinct placements" 2 (List.length splits);
  List.iter
    (fun placement ->
      Alcotest.(check int) "two sockets" 2 (List.length placement);
      List.iter
        (fun socket -> Alcotest.(check int) "socket filled" 2 (List.length socket))
        placement)
    splits

let test_scheduler_splits_homogeneous () =
  let combo = [ (Ppp_apps.App.MON, 4) ] in
  Alcotest.(check int) "single placement" 1
    (List.length (Scheduler.splits ~config:Ppp_hw.Machine.tiny combo))

let test_scheduler_rejects_wrong_total () =
  Alcotest.check_raises "combo size"
    (Invalid_argument "Scheduler.splits: combo must fill every core") (fun () ->
      ignore (Scheduler.splits ~config:Ppp_hw.Machine.tiny [ (Ppp_apps.App.MON, 3) ]))

let test_scheduler_evaluate_and_gain () =
  let combo = [ (Ppp_apps.App.MON, 2); (Ppp_apps.App.FW, 2) ] in
  let evals = Scheduler.evaluate ~params:quick combo in
  Alcotest.(check int) "all splits evaluated" 2 (List.length evals);
  let b = Scheduler.best evals and w = Scheduler.worst evals in
  Alcotest.(check bool) "best <= worst" true
    (b.Scheduler.avg_drop <= w.Scheduler.avg_drop);
  Alcotest.(check bool) "gain = worst - best" true
    (Float.abs (Scheduler.gain evals -. (w.Scheduler.avg_drop -. b.Scheduler.avg_drop)) < 1e-12);
  List.iter
    (fun e ->
      Alcotest.(check int) "four flows" 4 (List.length e.Scheduler.per_flow))
    evals

let test_scheduler_combo_name () =
  Alcotest.(check string) "name" "6 MON + 6 FW"
    (Scheduler.combo_name [ (Ppp_apps.App.MON, 6); (Ppp_apps.App.FW, 6) ])

(* --- Throttle --- *)

let test_throttle_caps_rate () =
  let hier = Ppp_hw.Machine.build Ppp_hw.Machine.tiny in
  let b = Ppp_hw.Trace.Builder.create () in
  (* A greedy source: 32 reads per packet, back to back. *)
  let rng = Ppp_util.Rng.create ~seed:5 in
  let inner _now =
    Ppp_hw.Trace.Builder.clear b;
    for _ = 1 to 32 do
      Ppp_hw.Trace.Builder.read b ~fn:Ppp_hw.Fn.none
        (Ppp_util.Rng.int rng 1024 * 64)
    done;
    Ppp_hw.Engine.Packet (Ppp_hw.Trace.Builder.finish b)
  in
  let freq_hz = Ppp_hw.Machine.tiny.Ppp_hw.Machine.costs.Ppp_hw.Costs.freq_hz in
  let budget = 10e6 in
  let source =
    Throttle.l3_budget_source ~budget_l3_refs_per_sec:budget ~hier ~core:0
      ~freq_hz inner
  in
  let results =
    Ppp_hw.Engine.run hier
      ~flows:[ { Ppp_hw.Engine.core = 0; label = "greedy"; source } ]
      ~warmup_cycles:100_000 ~measure_cycles:1_000_000
  in
  match results with
  | [ r ] ->
      let refs = Ppp_hw.Counters.l3_refs r.Ppp_hw.Engine.counters in
      let secs = float_of_int r.Ppp_hw.Engine.window_cycles /. freq_hz in
      let rate = float_of_int refs /. secs in
      Alcotest.(check bool)
        (Printf.sprintf "rate %.1fM under budget" (rate /. 1e6))
        true
        (rate <= budget *. 1.08)
  | _ -> Alcotest.fail "one result"

let test_throttle_does_not_slow_tame_flows () =
  let b = Ppp_hw.Trace.Builder.create () in
  let inner _now =
    Ppp_hw.Trace.Builder.clear b;
    Ppp_hw.Trace.Builder.compute b ~fn:Ppp_hw.Fn.none 1000;
    Ppp_hw.Trace.Builder.read b ~fn:Ppp_hw.Fn.none 64;
    Ppp_hw.Engine.Packet (Ppp_hw.Trace.Builder.finish b)
  in
  let freq_hz = Ppp_hw.Machine.tiny.Ppp_hw.Machine.costs.Ppp_hw.Costs.freq_hz in
  (* Tame flow: at most ~1 ref per 600 cycles = 4.7M refs/s (one L3 ref in
     all, as the line stays in L1), budget 100M. *)
  let run wrap =
    let hier = Ppp_hw.Machine.build Ppp_hw.Machine.tiny in
    match
      Ppp_hw.Engine.run hier
        ~flows:[ { Ppp_hw.Engine.core = 0; label = "t"; source = wrap hier } ]
        ~warmup_cycles:50_000 ~measure_cycles:500_000
    with
    | [ r ] -> r.Ppp_hw.Engine.packets
    | _ -> Alcotest.fail "one result"
  in
  let unthrottled = run (fun _ -> inner)
  and throttled =
    run (fun hier ->
        Throttle.l3_budget_source ~budget_l3_refs_per_sec:100e6 ~hier ~core:0
          ~freq_hz inner)
  in
  Alcotest.(check bool) "same packet count (within 1%)" true
    (abs (unthrottled - throttled) <= unthrottled / 100 + 1)

let test_throttle_rejects_bad_budget () =
  Alcotest.check_raises "budget" (Invalid_argument "Throttle: budget must be positive")
    (fun () ->
      ignore
        (Throttle.l3_budget_source ~budget_l3_refs_per_sec:0.0
           ~hier:(Ppp_hw.Machine.build Ppp_hw.Machine.tiny) ~core:0
           ~freq_hz:1e9
           (fun _ -> Ppp_hw.Engine.Idle Ppp_hw.Trace.empty)
          : Ppp_hw.Engine.source))

let test_two_faced_switches () =
  let heap = Ppp_simmem.Heap.create ~node:0 in
  let rng = Ppp_util.Rng.create ~seed:3 in
  let elements =
    Throttle.Two_faced.elements ~heap ~rng ~buffer_bytes:65536 ~quiet_reads:1
      ~loud_reads:64 ~switch_after:3
  in
  let ctx = Ppp_click.Ctx.create () in
  let p = Ppp_net.Packet.create 64 in
  let refs_of_packet () =
    let before = Ppp_hw.Trace.Builder.length ctx.Ppp_click.Ctx.builder in
    ignore (Ppp_click.Element.process_all elements ctx p);
    Ppp_hw.Trace.Builder.length ctx.Ppp_click.Ctx.builder - before
  in
  let quiet = List.init 3 (fun _ -> refs_of_packet ()) in
  let loud = refs_of_packet () in
  Alcotest.(check bool) "quiet phase small" true (List.for_all (fun r -> r <= 3) quiet);
  Alcotest.(check bool) "loud phase large" true (loud >= 64)

let tests =
  [
    Alcotest.test_case "eq1 zero cases" `Quick test_eq1_zero_cases;
    Alcotest.test_case "eq1 paper point (47% at 20M)" `Quick test_eq1_paper_point;
    Alcotest.test_case "eq1 monotonicity" `Quick test_eq1_monotone_in_everything;
    Alcotest.test_case "eq1 validation" `Quick test_eq1_validates;
    QCheck_alcotest.to_alcotest prop_eq1_bounded;
    Alcotest.test_case "model no competition" `Quick test_model_no_competition;
    Alcotest.test_case "model conversion monotone" `Quick test_model_conversion_increases;
    Alcotest.test_case "model knee shape" `Quick test_model_shape_knee;
    Alcotest.test_case "model curves bounded" `Quick test_model_curves_bounded;
    Alcotest.test_case "model drop vs eq1 bound" `Quick test_model_drop_curve_consistent;
    Alcotest.test_case "runner solo sane" `Quick test_runner_solo_sane;
    Alcotest.test_case "runner deterministic" `Quick test_runner_determinism;
    Alcotest.test_case "runner bad core" `Quick test_runner_rejects_bad_core;
    Alcotest.test_case "runner bad params" `Quick test_runner_rejects_bad_params;
    Alcotest.test_case "runner co-run drop" `Quick test_runner_corun_drop_positive;
    Alcotest.test_case "runner drop rejects empty solo" `Quick
      test_runner_drop_rejects_empty_solo;
    Alcotest.test_case "competing refs sum" `Quick test_competing_refs_sums_others;
    Alcotest.test_case "profile consistency" `Quick test_profile_consistency;
    Alcotest.test_case "profile table renders" `Quick test_profile_table_renders;
    Alcotest.test_case "fig3 placements" `Quick test_placement_shapes;
    Alcotest.test_case "sensitivity curve structure" `Quick test_sensitivity_curve_structure;
    Alcotest.test_case "predictor math" `Quick test_predictor_math;
    Alcotest.test_case "predictor unknown kind" `Quick test_predictor_unknown_kind;
    Alcotest.test_case "predictor throughput" `Quick test_predictor_throughput;
    Alcotest.test_case "scheduler split enumeration" `Quick test_scheduler_splits_enumeration;
    Alcotest.test_case "scheduler homogeneous combo" `Quick test_scheduler_splits_homogeneous;
    Alcotest.test_case "scheduler wrong total" `Quick test_scheduler_rejects_wrong_total;
    Alcotest.test_case "scheduler evaluate/gain" `Quick test_scheduler_evaluate_and_gain;
    Alcotest.test_case "scheduler combo name" `Quick test_scheduler_combo_name;
    Alcotest.test_case "throttle caps rate" `Quick test_throttle_caps_rate;
    Alcotest.test_case "throttle transparent when tame" `Quick test_throttle_does_not_slow_tame_flows;
    Alcotest.test_case "throttle bad budget" `Quick test_throttle_rejects_bad_budget;
    Alcotest.test_case "two-faced app switches" `Quick test_two_faced_switches;
  ]
