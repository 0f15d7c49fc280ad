(* Tests for the online contention monitor: hysteresis on synthetic sample
   streams, silence on solo/tame workloads, guaranteed detection of a
   behaviour-switching aggressor, and byte-determinism of every rendered
   output across job counts. *)

module Detector = Ppp_monitor.Detector
module Estimator = Ppp_monitor.Estimator
module Report = Ppp_monitor.Report

let quick =
  Ppp_core.Runner.Params.(
    quick |> with_windows ~warmup:100_000 ~measure:300_000)

(* --- synthetic sample streams (no engine) --- *)

(* tiny's clock; any fixed value works — rates scale linearly with it. *)
let freq_hz = 2.66e9
let slice = 100_000

(* A slice in which the flow issued [l3_refs] references (half hits) and
   completed [packets] packets. *)
let mk_sample ~core ~flow ~i ~packets ~l3_refs =
  let c = Ppp_hw.Counters.create () in
  for j = 0 to l3_refs - 1 do
    if j land 1 = 0 then Ppp_hw.Counters.add_l3_hit c Ppp_hw.Fn.none
    else Ppp_hw.Counters.add_l3_miss c Ppp_hw.Fn.none
  done;
  let lat = Ppp_util.Histogram.create () in
  for _ = 1 to packets do
    Ppp_util.Histogram.record lat 1000
  done;
  {
    Ppp_hw.Engine.s_core = core;
    s_flow = flow;
    s_start = i * slice;
    s_end = (i + 1) * slice;
    s_packets = packets;
    s_delta = c;
    s_latency = lat;
  }

let refs_per_slice rate = int_of_float (rate *. float_of_int slice /. freq_hz)

let tame_profile ~core ~rate =
  {
    Detector.label = "flow" ^ string_of_int core;
    core;
    solo_pps = 100.0 *. freq_hz /. float_of_int slice;
    solo_l3_refs_per_sec = rate;
    predict_drop = None;
  }

let feed_epochs det ~cores ~epochs ~rate_of =
  for i = 0 to epochs - 1 do
    List.iter
      (fun core ->
        Detector.feed det
          (mk_sample ~core
             ~flow:("flow" ^ string_of_int core)
             ~i ~packets:100
             ~l3_refs:(refs_per_slice (rate_of ~core ~epoch:i))))
      cores
  done

(* The aggressor alarm fires exactly at the K-th consecutive loud epoch and
   releases exactly after K quiet ones. *)
let test_hysteresis_exact () =
  let rate = 1e7 in
  let config =
    { (Detector.default_config ~sample_cycles:slice) with
      Detector.hysteresis = 3; ewma_alpha = 1.0 }
  in
  let det =
    Detector.create ~config ~freq_hz [ tame_profile ~core:0 ~rate ]
  in
  let switch = 5 and quiet_again = 12 in
  feed_epochs det ~cores:[ 0 ] ~epochs:20 ~rate_of:(fun ~core:_ ~epoch ->
      if epoch >= switch && epoch < quiet_again then 10.0 *. rate else rate);
  Detector.finalize det;
  match Detector.events det with
  | [ fire; release ] ->
      (match fire.Detector.e_kind with
      | Detector.Hidden_aggressor _ -> ()
      | k -> Alcotest.fail ("expected hidden_aggressor, got " ^ Detector.kind_name k));
      Alcotest.(check int) "fires at the K-th loud epoch" (switch + 3 - 1)
        fire.Detector.e_epoch;
      (match release.Detector.e_kind with
      | Detector.Recovered { condition } ->
          Alcotest.(check string) "releases the aggressor alarm"
            "hidden_aggressor" condition
      | k -> Alcotest.fail ("expected recovered, got " ^ Detector.kind_name k));
      Alcotest.(check int) "releases after K quiet epochs" (quiet_again + 3 - 1)
        release.Detector.e_epoch;
      Alcotest.(check int) "one recommendation per firing" 1
        (List.length (Detector.recommendations det))
  | es ->
      Alcotest.fail
        (Printf.sprintf "expected exactly 2 events, got %d" (List.length es))

(* A blip shorter than the hysteresis window never surfaces. *)
let test_hysteresis_suppresses_blips () =
  let rate = 1e7 in
  let config =
    { (Detector.default_config ~sample_cycles:slice) with
      Detector.hysteresis = 3; ewma_alpha = 1.0 }
  in
  let det =
    Detector.create ~config ~freq_hz [ tame_profile ~core:0 ~rate ]
  in
  feed_epochs det ~cores:[ 0 ] ~epochs:20 ~rate_of:(fun ~core:_ ~epoch ->
      if epoch mod 5 = 0 then 10.0 *. rate else rate);
  Detector.finalize det;
  Alcotest.(check int) "no events from 1-epoch blips" 0
    (List.length (Detector.events det))

let prop_switching_aggressor_always_caught =
  QCheck.Test.make ~count:100
    ~name:"switching aggressor raises hidden_aggressor exactly K-1 epochs \
           after the switch"
    QCheck.(
      triple (int_range 1 5) (int_range 0 10) (int_range 1 20))
    (fun (hysteresis, switch, tail) ->
      let rate = 1e7 in
      let epochs = switch + hysteresis + tail in
      let config =
        { (Detector.default_config ~sample_cycles:slice) with
          Detector.hysteresis }
      in
      let det =
        Detector.create ~config ~freq_hz
          [ tame_profile ~core:0 ~rate; tame_profile ~core:1 ~rate ]
      in
      (* Core 1 switches to 20x its profiled rate and stays loud: with the
         default 0.5 EWMA one loud slice already clears the 1.5x margin, so
         the alarm must arm exactly [hysteresis] epochs after the switch. *)
      feed_epochs det ~cores:[ 0; 1 ] ~epochs ~rate_of:(fun ~core ~epoch ->
          if core = 1 && epoch >= switch then 20.0 *. rate else rate);
      Detector.finalize det;
      let aggr =
        List.filter
          (fun (e : Detector.event) ->
            match e.Detector.e_kind with
            | Detector.Hidden_aggressor _ -> true
            | _ -> false)
          (Detector.events det)
      in
      match aggr with
      | [ e ] ->
          e.Detector.e_core = 1
          && e.Detector.e_epoch = switch + hysteresis - 1
      | _ -> false)

(* --- real engine: solo and tame co-runs stay silent --- *)

let profiles_for ~params kinds =
  List.mapi
    (fun i kind ->
      Detector.profile ~label:(Ppp_apps.App.name kind) ~core:i
        (Ppp_core.Runner.solo ~params kind))
    kinds

let monitored_run ~params ~cell kinds =
  let topo = params.Ppp_core.Runner.config.Ppp_hw.Machine.topology in
  let specs =
    List.mapi
      (fun core kind ->
        Ppp_core.Runner.flow_on
          ~node:(Ppp_hw.Topology.socket_of_core topo core)
          ~core kind)
      kinds
  in
  let config =
    Detector.default_config
      ~sample_cycles:(max 1 (params.Ppp_core.Runner.measure_cycles / 20))
  in
  let params = Ppp_core.Runner.Params.with_cell cell params in
  let _, (), det =
    Report.monitored_run ~params ~config ~budgets:[]
      (profiles_for ~params kinds) (fun hier ~heaps ~rng ->
        (Ppp_core.Runner.spec_flows ~params specs hier ~heaps ~rng, ()))
  in
  det

let prop_no_events_on_stationary_mixes =
  (* Stationary flows run as profiled: whatever the contention, the
     aggressor alarm (profiled rate + 50% margin) must stay silent, and solo
     flows must not read as degraded either. *)
  QCheck.Test.make ~count:8
    ~name:"no monitor events on solo runs or stationary mixes"
    QCheck.(pair (int_range 1 1000) (int_range 0 3))
    (fun (seed, mix_idx) ->
      let kinds =
        List.nth
          Ppp_apps.App.
            [ [ IP ]; [ MON ]; [ MON; IP ]; [ FW; IP; IP ] ]
          mix_idx
      in
      let params = { quick with Ppp_core.Runner.seed } in
      let det = monitored_run ~params ~cell:"monitor-test" kinds in
      List.for_all
        (fun ((_ : Detector.flow_profile), v) -> v = "ok")
        (Report.verdicts det)
      && Detector.events det = [])

(* --- end to end: the monitor experiment tells the Section 4 story --- *)

let test_monitor_experiment_story () =
  (* The full quick window (300k warmup / 1M measured): the throttled phase
     needs enough post-switch slices for the throttle's long-run average to
     bite and the alarm to release. *)
  let d =
    Ppp_experiments.Monitor_exp.measure ~params:Ppp_core.Runner.Params.quick ()
  in
  Alcotest.(check int) "tame phase: monitor silent" 0
    Ppp_experiments.Monitor_exp.(
      d.tame.n_degraded + d.tame.n_aggressor + d.tame.n_recovered);
  Alcotest.(check bool) "loud phase: hidden aggressor flagged" true
    (d.Ppp_experiments.Monitor_exp.loud.Ppp_experiments.Monitor_exp.n_aggressor
     >= 1);
  (match
     d.Ppp_experiments.Monitor_exp.loud.Ppp_experiments.Monitor_exp
     .first_aggressor_epoch
   with
  | Some epoch ->
      (* The aggressor switches mid-window (epoch ~10 of 20); detection must
         land within the hysteresis window of the switch becoming visible. *)
      Alcotest.(check bool)
        (Printf.sprintf "detection epoch %d is mid-run, not at the end" epoch)
        true
        (epoch >= 5 && epoch <= 16)
  | None -> Alcotest.fail "no detection epoch recorded");
  Alcotest.(check bool) "a throttle budget was recommended" true
    (d.Ppp_experiments.Monitor_exp.budget <> None);
  let aggr_verdict p =
    List.assoc "two-faced" p.Ppp_experiments.Monitor_exp.verdicts
  in
  Alcotest.(check string) "loud phase verdict" "aggressor"
    (aggr_verdict d.Ppp_experiments.Monitor_exp.loud);
  Alcotest.(check bool) "throttled phase: aggressor contained" true
    (List.mem
       (aggr_verdict d.Ppp_experiments.Monitor_exp.throttled)
       [ "ok"; "recovered" ]);
  Alcotest.(check bool) "throttling helped the victim" true
    (d.Ppp_experiments.Monitor_exp.throttled.Ppp_experiments.Monitor_exp
     .victim_pps
    >= d.Ppp_experiments.Monitor_exp.loud.Ppp_experiments.Monitor_exp
       .victim_pps)

(* --- determinism: every rendered output byte-identical across --jobs --- *)

let with_jobs n f =
  let prev = Ppp_core.Parallel.configured_jobs () in
  Ppp_core.Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Ppp_core.Parallel.set_jobs prev) f

let monitor_outputs ~jobs =
  with_jobs jobs (fun () ->
      let out = Ppp_experiments.Monitor_exp.run ~params:quick () in
      let det =
        monitored_run ~params:quick ~cell:"monitor-det"
          Ppp_apps.App.[ MON; IP ]
      in
      ( out.Ppp_experiments.Output.text,
        Ppp_telemetry.Json.to_string out.Ppp_experiments.Output.data,
        Report.timeline_csv det,
        Ppp_telemetry.Json.to_string (Report.alerts_json det) ))

let test_monitor_jobs_determinism () =
  let t1, d1, c1, a1 = monitor_outputs ~jobs:1 in
  let t4, d4, c4, a4 = monitor_outputs ~jobs:4 in
  Alcotest.(check string) "experiment text byte-identical" t1 t4;
  Alcotest.(check string) "experiment data (incl. alerts) byte-identical" d1
    d4;
  Alcotest.(check string) "monitor.csv byte-identical" c1 c4;
  Alcotest.(check string) "alerts.json byte-identical" a1 a4;
  Alcotest.(check bool) "timeline is non-trivial" true
    (String.length c1 > 200)

(* The engine's burst budget is a pure execution knob: the monitor sees the
   same sample stream — hence the same alerts, verdicts and timeline, byte
   for byte — whatever the batch. Catches any batching bug that moves a
   slice boundary or reorders a probe delivery. *)
let test_monitor_batch_determinism () =
  let outputs b =
    let det =
      monitored_run
        ~params:{ quick with Ppp_core.Runner.batch = b }
        ~cell:"monitor-batch"
        Ppp_apps.App.[ MON; IP ]
    in
    ( Report.timeline_csv det,
      Ppp_telemetry.Json.to_string (Report.alerts_json det) )
  in
  let c1, a1 = outputs 1 in
  List.iter
    (fun b ->
      let cb, ab = outputs b in
      Alcotest.(check string)
        (Printf.sprintf "monitor.csv: batch %d = batch 1" b) c1 cb;
      Alcotest.(check string)
        (Printf.sprintf "alerts.json: batch %d = batch 1" b) a1 ab)
    [ 7; 32; 256 ];
  Alcotest.(check bool) "timeline is non-trivial" true (String.length c1 > 200)

let tests =
  [
    Alcotest.test_case "hysteresis arms and releases exactly at K" `Quick
      test_hysteresis_exact;
    Alcotest.test_case "hysteresis suppresses blips" `Quick
      test_hysteresis_suppresses_blips;
    QCheck_alcotest.to_alcotest prop_switching_aggressor_always_caught;
    QCheck_alcotest.to_alcotest prop_no_events_on_stationary_mixes;
    Alcotest.test_case "monitor experiment: Section 4 story" `Slow
      test_monitor_experiment_story;
    Alcotest.test_case "monitor outputs byte-identical across --jobs" `Slow
      test_monitor_jobs_determinism;
    Alcotest.test_case "monitor outputs batch-invariant" `Slow
      test_monitor_batch_determinism;
  ]
