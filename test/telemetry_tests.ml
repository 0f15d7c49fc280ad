(* Tests for the telemetry subsystem: the deterministic JSON serializer,
   the conservation law of time-sliced sampling (per-slice counter deltas
   telescope to the full-window diff), byte-identical exports across job
   counts, and the machine-readable registry/manifest/trace shapes. *)

open Ppp_telemetry

(* Every test restores the recorder's disabled default, even on failure:
   the recorder is process-global and other suites assume it is off. *)
let with_recorder ~sample_cycles f =
  Recorder.reset ();
  Recorder.configure ~sample_cycles ~spans:false ();
  Fun.protect ~finally:Recorder.reset f

let quick =
  Ppp_core.Runner.Params.(
    quick |> with_windows ~warmup:100_000 ~measure:300_000)

(* --- Json --- *)

let test_json_repr () =
  Alcotest.(check string) "integral float" "42" (Json.float_repr 42.0);
  Alcotest.(check string) "fractional float" "0.15" (Json.float_repr 0.15);
  Alcotest.(check string) "nan is null" "null" (Json.float_repr Float.nan);
  Alcotest.(check string)
    "infinity is null" "null"
    (Json.float_repr Float.infinity);
  Alcotest.(check string)
    "minified object" {|{"a":1,"b":[true,null,"x"]}|}
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.Arr [ Json.Bool true; Json.Null; Json.Str "x" ]);
          ]))

let test_json_escaping () =
  let s = Json.to_string ~minify:true (Json.Str "a\"b\\c\n\t\x01") in
  Alcotest.(check string) "escaped" {|"a\"b\\c\n\t\u0001"|} s

let test_json_pretty () =
  let s =
    Json.to_string (Json.Obj [ ("k", Json.Arr [ Json.Int 1; Json.Int 2 ]) ])
  in
  Alcotest.(check string) "2-space indent, stable layout"
    "{\n  \"k\": [\n    1,\n    2\n  ]\n}" s

(* --- conservation: slices telescope to the window totals --- *)

let check_series_against (r : Ppp_hw.Engine.result) (s : Timeseries.t) =
  let sum = Timeseries.sum_slices s in
  let c = r.Ppp_hw.Engine.counters in
  Alcotest.(check int) "packets conserved" r.Ppp_hw.Engine.packets
    sum.Timeseries.packets;
  Alcotest.(check int) "instructions conserved"
    (Ppp_hw.Counters.instructions c)
    sum.Timeseries.instructions;
  Alcotest.(check int) "l1 hits conserved" (Ppp_hw.Counters.l1_hits c)
    sum.Timeseries.l1_hits;
  Alcotest.(check int) "l2 hits conserved" (Ppp_hw.Counters.l2_hits c)
    sum.Timeseries.l2_hits;
  Alcotest.(check int) "l3 hits conserved" (Ppp_hw.Counters.l3_hits c)
    sum.Timeseries.l3_hits;
  Alcotest.(check int) "l3 misses conserved" (Ppp_hw.Counters.l3_misses c)
    sum.Timeseries.l3_misses;
  Alcotest.(check int) "reads conserved" (Ppp_hw.Counters.reads c)
    sum.Timeseries.reads;
  Alcotest.(check int) "writes conserved" (Ppp_hw.Counters.writes c)
    sum.Timeseries.writes;
  Alcotest.(check int) "slices span the window" r.Ppp_hw.Engine.window_cycles
    (sum.Timeseries.t_end - sum.Timeseries.t_start);
  (* Contiguity: each slice starts where the previous one ended. *)
  ignore
    (List.fold_left
       (fun prev (sl : Timeseries.slice) ->
         (match prev with
         | Some t -> Alcotest.(check int) "slices contiguous" t sl.t_start
         | None -> ());
         Some sl.Timeseries.t_end)
       None s.Timeseries.slices)

let prop_conservation =
  QCheck.Test.make ~count:30
    ~name:"per-slice deltas sum exactly to the window counters"
    QCheck.(
      triple (int_range 1 500) (int_range 0 3)
        (int_range 17_000 400_000))
    (fun (seed, kind_idx, sample_cycles) ->
      let kind =
        List.nth Ppp_apps.App.[ IP; MON; FW; RE ] kind_idx
      in
      let params = { quick with Ppp_core.Runner.seed; cell = "prop" } in
      with_recorder ~sample_cycles (fun () ->
          let rs =
            Ppp_core.Runner.run ~params
              [
                Ppp_core.Runner.flow_on ~node:0 ~core:0 kind;
                Ppp_core.Runner.flow_on ~node:0 ~core:1 Ppp_apps.App.syn_max;
              ]
          in
          let series = Recorder.series () in
          Alcotest.(check int) "one series per core" (List.length rs)
            (List.length series);
          List.iter
            (fun (r : Ppp_hw.Engine.result) ->
              match
                List.find_opt
                  (fun (s : Timeseries.t) ->
                    s.Timeseries.core = r.Ppp_hw.Engine.core)
                  series
              with
              | Some s -> check_series_against r s
              | None -> Alcotest.fail "missing series for core")
            rs;
          true))

let test_tiny_slice_length () =
  (* sample_cycles = 1: one slice per operation completion — the extreme
     case for boundary jitter; conservation must still hold exactly. *)
  let params =
    {
      quick with
      Ppp_core.Runner.warmup_cycles = 5_000;
      measure_cycles = 10_000;
      cell = "prop";
    }
  in
  with_recorder ~sample_cycles:1 (fun () ->
      let rs =
        Ppp_core.Runner.run ~params
          [ Ppp_core.Runner.flow_on ~node:0 ~core:0 Ppp_apps.App.MON ]
      in
      match (rs, Recorder.series ()) with
      | [ r ], [ s ] -> check_series_against r s
      | _ -> Alcotest.fail "expected one result and one series")

(* --- determinism: exports byte-identical across job counts --- *)

let with_jobs n f =
  let prev = Ppp_core.Parallel.configured_jobs () in
  Ppp_core.Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Ppp_core.Parallel.set_jobs prev) f

let fig2_exports ~jobs =
  with_jobs jobs (fun () ->
      with_recorder ~sample_cycles:100_000 (fun () ->
          Recorder.set_experiment "fig2";
          let rendered =
            (Ppp_experiments.Fig2_exp.run ~params:quick ())
              .Ppp_experiments.Output.text
          in
          let csv = Csv.series_csv (Recorder.series ()) in
          let trace =
            Json.to_string
              (Export.deterministic_trace
                 ~meta:[ ("tool", Json.Str "test") ])
          in
          (rendered, csv, trace)))

let test_jobs_byte_equality () =
  let r1, c1, t1 = fig2_exports ~jobs:1 in
  let r4, c4, t4 = fig2_exports ~jobs:4 in
  Alcotest.(check string) "rendered tables unchanged by telemetry" r1 r4;
  Alcotest.(check string) "series CSV byte-identical --jobs 1 vs 4" c1 c4;
  Alcotest.(check string) "deterministic trace byte-identical" t1 t4;
  Alcotest.(check bool) "CSV is non-trivial" true
    (String.length c1 > 100 && String.split_on_char '\n' c1 |> List.length > 2)

(* --- registry --- *)

let test_registry_json () =
  match Ppp_experiments.Registry.to_json () with
  | Json.Arr entries ->
      let ids =
        List.map
          (function
            | Json.Obj kvs -> (
                match List.assoc_opt "id" kvs with
                | Some (Json.Str id) -> id
                | _ -> Alcotest.fail "entry without string id")
            | _ -> Alcotest.fail "entry is not an object")
          entries
      in
      Alcotest.(check (list string))
        "every registered id, in order"
        (Ppp_experiments.Registry.ids ())
        ids
  | _ -> Alcotest.fail "to_json is not an array"

(* --- manifest + trace shape --- *)

let manifest_run =
  {
    Manifest.tool = "test";
    machine = "tiny";
    seed = 42;
    warmup_cycles = 100_000;
    measure_cycles = 300_000;
    jobs_configured = 1;
    jobs_effective = 1;
    sample_cycles = Some 100_000;
  }

let minified_contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

let test_manifest_shape () =
  with_recorder ~sample_cycles:100_000 (fun () ->
      Recorder.record_experiment ~id:"fig2" ~title:"t" ~paper_ref:"Figure 2"
        ~wall_s:1.5 ~data:Json.Null;
      let j =
        Manifest.json ~run:manifest_run
          ~experiments:(Recorder.experiments ())
          ~series:(Recorder.series ()) ~spans:(Recorder.spans ()) ()
      in
      let s = Json.to_string ~minify:true j in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "manifest mentions %s" needle)
            true (minified_contains s needle))
        [
          "ppp-telemetry/6"; "\"schema_version\":6"; "\"tool\":\"test\"";
          "\"fig2\""; "wall_clock"; "\"profile\":{\"entries\":0";
        ])

let test_manifest_alerts_shape () =
  (* The alerts section is always present: empty-but-valid with no events,
     a per-name count breakdown with some. *)
  with_recorder ~sample_cycles:100_000 (fun () ->
      let manifest () =
        Json.to_string ~minify:true
          (Manifest.json
             ~events:(Recorder.events ())
             ~run:manifest_run ~experiments:[] ~series:[] ~spans:[] ())
      in
      let empty = manifest () in
      Alcotest.(check bool) "empty alerts section is the valid empty shape"
        true
        (minified_contains empty {|"alerts":{"events":0,"by_name":{}}|});
      Recorder.set_experiment "monitor";
      let ev name =
        {
          Event.experiment = "";
          cell = "monitor/loud";
          t_cycles = 1_000_000;
          core = 1;
          flow = "two-faced";
          name;
          args = [];
        }
      in
      Recorder.add_events
        [ ev "monitor.hidden_aggressor"; ev "monitor.recovered";
          ev "monitor.hidden_aggressor" ];
      Recorder.set_experiment "";
      let s = manifest () in
      Alcotest.(check bool) "per-name counts, names sorted" true
        (minified_contains s
           {|"alerts":{"events":3,"by_name":{"monitor.hidden_aggressor":2,"monitor.recovered":1}}|}))

let test_manifest_experiment_data () =
  (* Schema 6: each experiments[] entry carries the experiment's
     Output.data verbatim as [data], and the cross-experiment sections stay
     present (empty-but-valid) whatever the experiments emitted. *)
  with_recorder ~sample_cycles:100_000 (fun () ->
      let row = [ ("lookups", Json.Int 1000); ("drop", Json.Float 0.0125) ] in
      let data = Json.Arr [ Json.Obj row ] in
      Recorder.record_experiment ~id:"classifier" ~title:"t"
        ~paper_ref:"extension" ~wall_s:0.5 ~data;
      let j =
        Manifest.json ~run:manifest_run
          ~experiments:(Recorder.experiments ())
          ~series:[] ~spans:[] ()
      in
      (match j with
      | Json.Obj kvs -> (
          match List.assoc_opt "experiments" kvs with
          | Some (Json.Arr [ Json.Obj e ]) ->
              Alcotest.(check bool) "data embedded verbatim" true
                (List.assoc_opt "data" e = Some data)
          | _ -> Alcotest.fail "expected exactly one experiments[] entry")
      | _ -> Alcotest.fail "manifest is not an object");
      let s = Json.to_string ~minify:true j in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "manifest mentions %s" needle)
            true (minified_contains s needle))
        [ {|"alerts":{"events":0,"by_name":{}}|}; {|"profile":{"entries":0|} ])

(* The per-cell counters of the former bespoke classifier and traffic
   sections reach the manifest as columns of their experiment's data. *)
let manifest_of_experiment ~id ~data =
  with_recorder ~sample_cycles:100_000 (fun () ->
      Recorder.record_experiment ~id ~title:"t" ~paper_ref:"extension"
        ~wall_s:0.5 ~data;
      let j =
        Manifest.json ~run:manifest_run
          ~experiments:(Recorder.experiments ())
          ~series:[] ~spans:[] ()
      in
      (match j with
      | Json.Obj kvs ->
          Alcotest.(check bool)
            (Printf.sprintf "no bespoke top-level %s section" id)
            false (List.mem_assoc id kvs)
      | _ -> Alcotest.fail "manifest is not an object");
      Json.to_string ~minify:true j)

let check_mentions s needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "manifest mentions %s" needle)
        true (minified_contains s needle))
    needles

let test_manifest_classifier_shape () =
  let cell =
    {
      Ppp_experiments.Classifier_exp.backend = "tss";
      rules = 128;
      skew = 0.0;
      hit_rate = 0.7;
      upcalls_per_packet = 0.3;
      lookups = 1000;
      hits = 700;
      upcalls = 300;
      installs = 290;
      evictions = 12;
      solo_pps = 1e6;
      drop = 0.1;
      l3_refs_per_sec = 2e7;
    }
  in
  let s =
    manifest_of_experiment ~id:"classifier"
      ~data:
        (Ppp_experiments.Classifier_exp.data_json
           { Ppp_experiments.Classifier_exp.cells = [ cell ] })
  in
  check_mentions s
    [
      {|"id":"classifier"|};
      {|{"backend":"tss","rules":128,|};
      {|"lookups":1000,"hits":700,"upcalls":300,"installs":290,"evictions":12,|};
    ]

let test_manifest_traffic_shape () =
  let cell =
    {
      Ppp_experiments.Traffic_exp.model = "heavy";
      knob = "alpha=1.1";
      steering = "fdir";
      solo_pps = 1e6;
      measured_drop = 0.31;
      predicted_drop = 0.25;
      abs_err = 0.06;
      false_alerts = 1;
      reorders = 17;
      migrations = 17;
      evictions = 42;
      packets = 5000;
      lat_p99_inorder = 900;
      lat_p99_reordered = 1200;
    }
  in
  let s =
    manifest_of_experiment ~id:"traffic"
      ~data:
        (Ppp_experiments.Traffic_exp.data_json
           {
             Ppp_experiments.Traffic_exp.twin_solo_pps = 1e6;
             curve_points = [];
             cells = [ cell ];
           })
  in
  check_mentions s
    [
      {|"id":"traffic"|};
      {|{"model":"heavy","knob":"alpha=1.1","steering":"fdir",|};
      {|"false_alerts":1,"reorders":17,"migrations":17,"evictions":42,"packets":5000,|};
    ]

let test_trace_shape () =
  with_recorder ~sample_cycles:100_000 (fun () ->
      Recorder.set_experiment "fig2";
      ignore
        (Ppp_core.Runner.run
           ~params:{ quick with Ppp_core.Runner.cell = "pair" }
           [ Ppp_core.Runner.flow_on ~node:0 ~core:0 Ppp_apps.App.MON ]
          : Ppp_hw.Engine.result list);
      match Export.deterministic_trace ~meta:[] with
      | Json.Obj kvs ->
          (match List.assoc_opt "traceEvents" kvs with
          | Some (Json.Arr evs) ->
              Alcotest.(check bool) "has events" true (List.length evs > 0);
              let phases =
                List.filter_map
                  (function
                    | Json.Obj e -> (
                        match List.assoc_opt "ph" e with
                        | Some (Json.Str p) -> Some p
                        | _ -> None)
                    | _ -> None)
                  evs
              in
              Alcotest.(check bool) "metadata events present" true
                (List.mem "M" phases);
              Alcotest.(check bool) "counter events present" true
                (List.mem "C" phases);
              Alcotest.(check bool)
                "no wall-clock spans in the deterministic trace" false
                (List.mem "X" phases)
          | _ -> Alcotest.fail "traceEvents missing");
          Alcotest.(check bool) "displayTimeUnit set" true
            (List.mem_assoc "displayTimeUnit" kvs)
      | _ -> Alcotest.fail "trace is not an object")

(* --- every experiment is observable, and observing it changes nothing --- *)

(* The experiments that pass their own flow builder to Runner.run_with:
   each also runs unobserved, to show that observation changes nothing. *)
let hand_built =
  [
    "classifier"; "flowcache"; "monitor"; "multiflow"; "pipeline";
    "throttle"; "traffic";
  ]

(* [data]'s value at a path of object keys. *)
let json_at data path =
  List.fold_left
    (fun j k ->
      match j with
      | Json.Obj kvs when List.mem_assoc k kvs -> List.assoc k kvs
      | _ -> Alcotest.fail ("missing key " ^ k))
    data path

let json_int = function Json.Int n -> n | _ -> Alcotest.fail "not an int"

let json_list = function Json.Arr l -> l | _ -> Alcotest.fail "not an array"

let test_every_experiment_observed () =
  let params =
    Ppp_core.Runner.Params.(
      quick |> with_windows ~warmup:50_000 ~measure:200_000)
  in
  let rendered (out : Ppp_experiments.Output.t) =
    (out.Ppp_experiments.Output.text,
     Json.to_string out.Ppp_experiments.Output.data)
  in
  List.iter
    (fun (e : Ppp_experiments.Registry.t) ->
      let id = e.Ppp_experiments.Registry.id in
      let observed =
        Fun.protect ~finally:Recorder.reset (fun () ->
            Recorder.reset ();
            Recorder.configure ~sample_cycles:50_000 ~spans:true ();
            Recorder.set_experiment id;
            let out =
              e.Ppp_experiments.Registry.run
                ~params:(Ppp_core.Runner.Params.with_profile true params)
                ()
            in
            let series = Recorder.series () in
            Alcotest.(check bool)
              (id ^ " records series rows") true
              (List.exists
                 (fun (s : Timeseries.t) ->
                   s.Timeseries.experiment = id && s.Timeseries.slices <> [])
                 series);
            Alcotest.(check bool)
              (id ^ " records a runner span") true
              (List.exists
                 (fun (sp : Span.t) -> sp.Span.cat = "runner")
                 (Recorder.spans ()));
            Alcotest.(check bool)
              (id ^ " records a profile") true
              (Recorder.profile () <> []);
            (* A caller's probe sets its cell's grid: the monitor's detector
               slices the window in 20, whatever the recorder's period. *)
            if id = "monitor" then
              List.iter
                (fun (s : Timeseries.t) ->
                  if s.Timeseries.cell = "monitor/loud" then begin
                    let total = Timeseries.sum_slices s in
                    let mean =
                      (total.Timeseries.t_end - total.Timeseries.t_start)
                      / List.length s.Timeseries.slices
                    in
                    Alcotest.(check bool)
                      (Printf.sprintf "monitor/loud slices ~10000 cycles, got %d"
                         mean)
                      true
                      (abs (mean - 10_000) < 1_000)
                  end)
                series;
            (* Every monitored run records its detector's events: the
               traffic cells' false alerts and the monitor's three phases
               reach the manifest and the trace. *)
            let recorded p =
              List.length
                (List.filter (fun (ev : Event.t) -> p ev.Event.name)
                   (Recorder.events ()))
            in
            let data = out.Ppp_experiments.Output.data in
            (match id with
            | "traffic" ->
                let false_alerts =
                  List.fold_left
                    (fun acc c -> acc + json_int (json_at c [ "false_alerts" ]))
                    0
                    (json_list (json_at data [ "cells" ]))
                in
                Alcotest.(check int)
                  "traffic: one hidden_aggressor event per false alert"
                  false_alerts
                  (recorded (String.equal "monitor.hidden_aggressor"));
                Alcotest.(check bool) "traffic raised false alerts" true
                  (false_alerts > 0)
            | "monitor" ->
                let phase_events =
                  List.fold_left
                    (fun acc phase ->
                      let events = json_at data [ phase; "alerts"; "events" ] in
                      acc + List.length (json_list events))
                    0
                    [ "tame"; "loud"; "throttled" ]
                in
                Alcotest.(check int) "monitor: every phase event recorded"
                  phase_events
                  (recorded (String.starts_with ~prefix:"monitor."))
            | _ -> ());
            rendered out)
      in
      if List.mem id hand_built then
        Alcotest.(check (pair string string))
          (id ^ " output unchanged by observation")
          (rendered (e.Ppp_experiments.Registry.run ~params ()))
          observed)
    Ppp_experiments.Registry.all

(* A runner span's key (its name and args) names one simulation, and the
   ablation simulates each of its cells once: its two sweeps' default-cost
   points reuse the bounds phase's MON runs, and its NUMA phase the bounds
   phase's solos. *)
let test_ablation_spans () =
  let params =
    Ppp_core.Runner.Params.(
      quick |> with_windows ~warmup:50_000 ~measure:200_000)
  in
  let spans =
    Fun.protect ~finally:Recorder.reset (fun () ->
        Recorder.reset ();
        Recorder.configure ~spans:true ();
        ignore (Ppp_experiments.Ablation_exp.run ~params ());
        List.filter (fun (sp : Span.t) -> sp.Span.cat = "runner")
          (Recorder.spans ()))
  in
  let keys =
    List.sort_uniq compare
      (List.map (fun (sp : Span.t) -> (sp.Span.name, sp.Span.args)) spans)
  in
  Alcotest.(check int) "runner spans" 21 (List.length spans);
  Alcotest.(check int) "distinct (name, args) keys" 21 (List.length keys)

let test_recorder_validation () =
  Alcotest.check_raises "sample_cycles < 1 rejected"
    (Invalid_argument "Recorder.configure: sample_cycles must be >= 1")
    (fun () -> Recorder.configure ~sample_cycles:0 ());
  Recorder.reset ();
  Alcotest.(check (option int)) "off by default" None (Recorder.sampling ());
  Alcotest.(check bool) "spans off by default" false (Recorder.spans_enabled ())

let tests =
  [
    Alcotest.test_case "json float/int repr" `Quick test_json_repr;
    Alcotest.test_case "json string escaping" `Quick test_json_escaping;
    Alcotest.test_case "json pretty layout" `Quick test_json_pretty;
    QCheck_alcotest.to_alcotest prop_conservation;
    Alcotest.test_case "conservation at slice length 1" `Quick
      test_tiny_slice_length;
    Alcotest.test_case "exports byte-identical across --jobs" `Slow
      test_jobs_byte_equality;
    Alcotest.test_case "registry --json lists every experiment" `Quick
      test_registry_json;
    Alcotest.test_case "manifest shape" `Quick test_manifest_shape;
    Alcotest.test_case "manifest alerts section" `Quick
      test_manifest_alerts_shape;
    Alcotest.test_case "manifest classifier section" `Quick
      test_manifest_classifier_shape;
    Alcotest.test_case "manifest traffic section" `Quick
      test_manifest_traffic_shape;
    Alcotest.test_case "manifest experiment data" `Quick
      test_manifest_experiment_data;
    Alcotest.test_case "deterministic trace shape" `Quick test_trace_shape;
    Alcotest.test_case "every experiment observable, observation inert" `Slow
      test_every_experiment_observed;
    Alcotest.test_case "ablation simulates each cell once" `Quick
      test_ablation_spans;
    Alcotest.test_case "recorder validation and defaults" `Quick
      test_recorder_validation;
  ]
