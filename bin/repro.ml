(* repro — regenerate the paper's tables and figures, or run ad-hoc mixes. *)

module Cli = Ppp_util.Cli

(* --- shared flags: simulation parameters --- *)

let params_args cli =
  let config =
    Cli.string cli [ "--config" ] ~docv:"NAME"
      ~doc:"Machine configuration (westmere | scaled | tiny)." "scaled"
  in
  let seed = Cli.int cli [ "--seed" ] ~docv:"N" ~doc:"Random seed." 42 in
  let warmup =
    Cli.int cli [ "--warmup" ] ~docv:"CYCLES" ~doc:"Warmup cycles."
      Ppp_core.Runner.Params.default.Ppp_core.Runner.warmup_cycles
  in
  let measure =
    Cli.int cli [ "--measure" ] ~docv:"CYCLES" ~doc:"Measured cycles."
      Ppp_core.Runner.Params.default.Ppp_core.Runner.measure_cycles
  in
  let quick =
    Cli.flag cli [ "--quick" ]
      ~doc:"Quarter-length windows (faster, noisier)."
  in
  let batch =
    Cli.int cli [ "--batch" ] ~docv:"N"
      ~doc:
        "Engine burst budget: trace ops a scheduled core may retire per \
         scheduling decision. Output is byte-identical for any value >= 1."
      Ppp_core.Runner.Params.default.Ppp_core.Runner.batch
  in
  let jobs =
    Cli.int cli [ "--jobs"; "-j" ] ~docv:"N"
      ~doc:
        "Worker domains for independent experiment cells (0 = physical \
         cores, 1 = sequential). Output is byte-identical for any value."
      0
  in
  let profile =
    Cli.flag cli [ "--profile" ]
      ~doc:
        "Attribute cycles, instructions, L3 hits/misses and per-packet \
         latency to (core, function tag) during every run. Pure \
         observation — simulation results are byte-identical with or \
         without it. Exports go to --profile-out (default \"profile\"), \
         and the manifest's profile section when --metrics is given."
  in
  fun () ->
    (match Ppp_hw.Machine.by_name !config with
    | None -> Cli.die cli (Printf.sprintf "unknown config %S" !config)
    | Some c ->
        if !jobs < 0 then Cli.die cli "--jobs must be >= 0";
        (* Validate the windows the run will use, after --quick's division. *)
        let div = if !quick then 4 else 1 in
        let params =
          Ppp_core.Runner.Params.(
            default |> with_config c |> with_seed !seed
            |> with_windows ~warmup:(!warmup / div) ~measure:(!measure / div)
            |> with_batch !batch |> with_profile !profile)
        in
        (match Ppp_core.Runner.Params.validate params with
        | Ok () -> ()
        | Error e -> Cli.die cli (if !quick then e ^ " after --quick" else e));
        Ppp_core.Parallel.set_jobs !jobs;
        params)

(* --- shared flags: telemetry (--trace / --metrics / --sample-cycles) --- *)

type telemetry_opts = {
  trace : string option;
  metrics : string option;
  profile_out : string option;
  sample_cycles : int;  (* 0 = derive from the measurement window *)
  verbose : bool;
}

let telemetry_args cli =
  let trace =
    Cli.opt_string cli [ "--trace" ] ~docv:"FILE"
      ~doc:
        "Export a Chrome trace-event JSON of the run (open in Perfetto or \
         chrome://tracing): counter time series per core on the simulated \
         clock, plus wall-clock runner spans."
  in
  let metrics =
    Cli.opt_string cli [ "--metrics" ] ~docv:"DIR"
      ~doc:
        "Export machine-readable metrics into DIR: series.csv \
         (simulated-time counter slices), spans.csv (wall-clock runner \
         spans) and manifest.json (run provenance + each experiment's \
         wall-clock and structured result)."
  in
  let profile_out =
    Cli.opt_string cli [ "--profile-out" ] ~docv:"DIR"
      ~doc:
        "Where --profile writes its flamegraph-ready exports: \
         profile_cycles.folded and profile_l3_misses.folded (folded stacks \
         for flamegraph.pl / inferno / speedscope) plus top.txt (the \
         hot-spot report). Default \"profile\"."
  in
  let sample_cycles =
    Cli.int cli [ "--sample-cycles" ] ~docv:"K"
      ~doc:
        "Counter-sampling slice length in simulated cycles (0 = \
         measure_cycles / 20). Only meaningful with --trace or --metrics. \
         Does not apply to cells that a contention monitor observes with its \
         own probe: those are sampled on the monitor's slice grid."
      0
  in
  let verbose =
    Cli.flag cli [ "--verbose" ]
      ~doc:
        "Echo per-experiment wall-clock timings to stderr (they are always \
         recorded in the manifest when --metrics is given)."
  in
  fun () ->
    if !sample_cycles < 0 then Cli.die cli "--sample-cycles must be >= 0";
    {
      trace = !trace;
      metrics = !metrics;
      profile_out = !profile_out;
      sample_cycles = !sample_cycles;
      verbose = !verbose;
    }

let effective_sample_cycles params t =
  if t.sample_cycles > 0 then t.sample_cycles
  else Ppp_core.Runner.Params.sample_cycles params

let profile_dir params t =
  match t.profile_out with
  | Some dir -> Some dir
  | None -> if params.Ppp_core.Runner.profile then Some "profile" else None

(* An output file is created (empty) and an output directory made before
   anything runs, so a bad path fails before the first table is printed. *)
let check_output_file path = close_out (open_out_bin path)

let setup_telemetry params t =
  Option.iter check_output_file t.trace;
  Option.iter Ppp_telemetry.Export.ensure_dir t.metrics;
  Option.iter Ppp_telemetry.Export.ensure_dir (profile_dir params t);
  if t.trace <> None || t.metrics <> None then
    Ppp_telemetry.Recorder.configure
      ~sample_cycles:(effective_sample_cycles params t)
      ~spans:true ()

let run_meta params =
  let open Ppp_core.Runner in
  [
    ("tool", Ppp_telemetry.Json.Str "repro");
    ("machine", Ppp_telemetry.Json.Str params.config.Ppp_hw.Machine.name);
    ("seed", Ppp_telemetry.Json.Int params.seed);
    ("warmup_cycles", Ppp_telemetry.Json.Int params.warmup_cycles);
    ("measure_cycles", Ppp_telemetry.Json.Int params.measure_cycles);
    ( "sample_cycles",
      match Ppp_telemetry.Recorder.sampling () with
      | Some k -> Ppp_telemetry.Json.Int k
      | None -> Ppp_telemetry.Json.Null );
  ]

let finish_telemetry params t =
  (match t.trace with
  | Some path ->
      Ppp_telemetry.Export.write_trace ~path ~meta:(run_meta params);
      Printf.eprintf "wrote Chrome trace to %s (open in ui.perfetto.dev)\n%!"
        path
  | None -> ());
  (match t.metrics with
  | Some dir ->
      let run =
        {
          Ppp_telemetry.Manifest.tool = "repro";
          machine = params.Ppp_core.Runner.config.Ppp_hw.Machine.name;
          seed = params.Ppp_core.Runner.seed;
          warmup_cycles = params.Ppp_core.Runner.warmup_cycles;
          measure_cycles = params.Ppp_core.Runner.measure_cycles;
          jobs_configured = Ppp_core.Parallel.configured_jobs ();
          jobs_effective = Ppp_core.Parallel.jobs ();
          sample_cycles = Ppp_telemetry.Recorder.sampling ();
        }
      in
      Ppp_telemetry.Export.write_metrics_dir ~dir ~run;
      Printf.eprintf "wrote series.csv, spans.csv, manifest.json to %s/\n%!"
        dir
  | None -> ());
  match profile_dir params t with
  | Some dir ->
      Ppp_telemetry.Export.write_profile_dir ~dir;
      Printf.eprintf
        "wrote profile_cycles.folded, profile_l3_misses.folded, top.txt to \
         %s/\n\
         %!"
        dir
  | None -> ()

(* --- list --- *)

let list_main () =
  let cli =
    Cli.create ~prog:"repro list [--json]"
      ~summary:"List available experiments."
  in
  let json =
    Cli.flag cli [ "--json" ]
      ~doc:
        "Machine-readable output: a JSON array of {id, title, paper_ref} \
         objects, for tooling/CI."
  in
  (match Cli.parse cli ~start:2 Sys.argv with
  | [] -> ()
  | a :: _ -> Cli.die cli (Printf.sprintf "unexpected argument %S" a));
  if !json then
    print_endline
      (Ppp_telemetry.Json.to_string (Ppp_experiments.Registry.to_json ()))
  else
    List.iter
      (fun e ->
        Printf.printf "%-10s %-22s %s\n" e.Ppp_experiments.Registry.id
          ("[" ^ e.Ppp_experiments.Registry.paper_ref ^ "]")
          e.Ppp_experiments.Registry.title)
      Ppp_experiments.Registry.all

(* --- run / all --- *)

let find_experiment cli id =
  match Ppp_experiments.Registry.find id with
  | Some e -> e
  | None ->
      Cli.die cli (Printf.sprintf "unknown experiment %S (try `repro list`)" id)

let run_experiment ~verbose params (e : Ppp_experiments.Registry.t) =
  let id = e.Ppp_experiments.Registry.id in
  Ppp_telemetry.Recorder.set_experiment id;
  let t0 = Unix.gettimeofday () in
  let out = e.Ppp_experiments.Registry.run ~params () in
  let wall_s = Unix.gettimeofday () -. t0 in
  Ppp_telemetry.Recorder.set_experiment "";
  (* Wall-clock lives in the manifest (structured, --metrics); the stderr
     echo is opt-in so stdout/stderr stay quiet and stdout is
     byte-identical across job counts, seeds being equal. *)
  Ppp_telemetry.Recorder.record_experiment ~id
    ~title:e.Ppp_experiments.Registry.title
    ~paper_ref:e.Ppp_experiments.Registry.paper_ref ~wall_s
    ~data:out.Ppp_experiments.Output.data;
  if verbose then Printf.eprintf "[%s: %.1fs]\n%!" id wall_s;
  out

let print_text params ~verbose (e : Ppp_experiments.Registry.t) =
  Printf.printf "=== %s (%s): %s ===\n%!" e.Ppp_experiments.Registry.id
    e.Ppp_experiments.Registry.paper_ref e.Ppp_experiments.Registry.title;
  let out = run_experiment ~verbose params e in
  Printf.printf "%s\n%!" out.Ppp_experiments.Output.text

let print_json params ~verbose experiments =
  let envelopes =
    List.map
      (fun e ->
        Ppp_experiments.Registry.envelope e (run_experiment ~verbose params e))
      experiments
  in
  (* One experiment prints one object; several print an array — either way
     stdout is a single JSON document. *)
  let doc =
    match envelopes with
    | [ one ] -> one
    | many -> Ppp_telemetry.Json.Arr many
  in
  print_endline (Ppp_telemetry.Json.to_string doc)

let run_all_main ~all () =
  let prog, summary, positional =
    if all then
      ("repro all [options]", "Run every experiment (the full reproduction).",
       fun cli -> function
        | [] -> List.map (fun e -> e.Ppp_experiments.Registry.id)
                  Ppp_experiments.Registry.all
        | a :: _ -> Cli.die cli (Printf.sprintf "unexpected argument %S" a))
    else
      ("repro run [options] EXPERIMENT...",
       "Run one or more experiments by id.",
       fun cli -> function
        | [] -> Cli.die cli "expected at least one experiment id"
        | ids -> ids)
  in
  let cli = Cli.create ~prog ~summary in
  let params = params_args cli in
  let telemetry = telemetry_args cli in
  let json =
    Cli.flag cli [ "--json" ]
      ~doc:
        "Print each experiment's structured result (id, title, paper_ref, \
         data) as a single JSON document instead of the rendered tables."
  in
  let ids = positional cli (Cli.parse cli ~start:2 Sys.argv) in
  let params = params () and telemetry = telemetry () in
  let experiments = List.map (find_experiment cli) ids in
  setup_telemetry params telemetry;
  if !json then print_json params ~verbose:telemetry.verbose experiments
  else
    List.iter (print_text params ~verbose:telemetry.verbose) experiments;
  finish_telemetry params telemetry

(* --- top --- *)

let top_main () =
  let cli =
    Cli.create ~prog:"repro top [options] EXPERIMENT..."
      ~summary:
        "Run experiments with per-function attribution on and print the \
         top-style hot-spot report: the hottest function tags by window cycles \
         and by L3 misses, with window share, miss rate and latency tails."
  in
  let params = params_args cli in
  let k =
    Cli.int cli [ "--top"; "-k" ] ~docv:"N" ~doc:"Rows per report section." 10
  in
  let ids =
    match Cli.parse cli ~start:2 Sys.argv with
    | [] -> Cli.die cli "expected at least one experiment id"
    | ids -> ids
  in
  let params = params () in
  if !k < 1 then Cli.die cli "--top must be >= 1";
  let params = Ppp_core.Runner.Params.with_profile true params in
  let experiments = List.map (find_experiment cli) ids in
  List.iter
    (fun (e : Ppp_experiments.Registry.t) ->
      (* One report per experiment: the profile accumulates per cell, so
         drop the previous experiment's entries before running the next. *)
      Ppp_telemetry.Recorder.clear_data ();
      let (_ : Ppp_experiments.Output.t) =
        run_experiment ~verbose:false params e
      in
      print_string
        (Ppp_telemetry.Profile.top ~k:!k ~title:e.Ppp_experiments.Registry.id
           (Ppp_telemetry.Recorder.profile ())))
    experiments

(* --- mix / predict / capture --- *)

let parse_kinds cli names =
  List.map
    (fun n ->
      match Ppp_apps.App.of_name n with
      | Some k -> k
      | None ->
          Cli.die cli
            (Printf.sprintf
               "unknown flow type %S (IP MON FW RE VPN DPI SYN_MAX SYN:<r>:<i>)"
               n))
    names

(* mix and monitor place one flow per core, from core 0 up, each with its
   data on its own core's socket. *)
let local_specs params kinds =
  let topo = params.Ppp_core.Runner.config.Ppp_hw.Machine.topology in
  List.mapi
    (fun core kind ->
      Ppp_core.Runner.flow_on
        ~node:(Ppp_hw.Topology.socket_of_core topo core)
        ~core kind)
    kinds

let check_flows_fit cli params names =
  let config = params.Ppp_core.Runner.config in
  let cores = Ppp_hw.Topology.cores config.Ppp_hw.Machine.topology in
  let n = List.length names in
  if n > cores then
    Cli.die cli
      (Printf.sprintf "%d flows do not fit on config %s, which has %d cores" n
         config.Ppp_hw.Machine.name cores)

let mix_main () =
  let cli =
    Cli.create ~prog:"repro mix [options] FLOW..."
      ~summary:
        "Co-run an ad-hoc set of flows (one per core) and report drops."
  in
  let params = params_args cli in
  let telemetry = telemetry_args cli in
  let names =
    match Cli.parse cli ~start:2 Sys.argv with
    | [] -> Cli.die cli "expected at least one flow type"
    | names -> names
  in
  let params = params () and telemetry = telemetry () in
  check_flows_fit cli params names;
  setup_telemetry params telemetry;
  let kinds = parse_kinds cli names in
  let specs = local_specs params kinds in
  let solos =
    List.map
      (fun k -> (k, Ppp_core.Runner.solo ~params k))
      (List.sort_uniq compare kinds)
  in
  let results =
    Ppp_core.Runner.run
      ~params:(Ppp_core.Runner.Params.with_cell "mix" params)
      specs
  in
  let t =
    Ppp_util.Table.create
      ~title:"Co-run (one flow per core, data local, socket-filling order)"
      [
        "flow"; "core"; "pps"; "drop (%)"; "L3 refs/s (M)"; "L3 hits/s (M)";
        "cycles/pkt"; "lat p50"; "lat p99";
      ]
  in
  List.iter2
    (fun kind (r : Ppp_hw.Engine.result) ->
      let solo = List.assoc kind solos in
      (* Before the row: a list literal's cells evaluate right to left, and
         an empty solo window must report the drop's error. *)
      let drop = Ppp_core.Runner.drop ~solo ~corun:r in
      Ppp_util.Table.add_row t
        [
          Ppp_apps.App.name kind;
          string_of_int r.Ppp_hw.Engine.core;
          Printf.sprintf "%.0f" r.Ppp_hw.Engine.throughput_pps;
          Printf.sprintf "%.2f" (100.0 *. drop);
          Printf.sprintf "%.1f" (r.Ppp_hw.Engine.l3_refs_per_sec /. 1e6);
          Printf.sprintf "%.1f" (r.Ppp_hw.Engine.l3_hits_per_sec /. 1e6);
          Printf.sprintf "%.0f"
            (Ppp_core.Runner.per_packet r.Ppp_hw.Engine.window_cycles
               ~packets:r.Ppp_hw.Engine.packets);
          string_of_int
            (Ppp_util.Histogram.percentile r.Ppp_hw.Engine.latency 50.0);
          string_of_int
            (Ppp_util.Histogram.percentile r.Ppp_hw.Engine.latency 99.0);
        ])
    kinds results;
  Ppp_util.Table.print t;
  finish_telemetry params telemetry

let predict_main () =
  let cli =
    Cli.create ~prog:"repro predict [options] TARGET COMPETITOR..."
      ~summary:
        "Predict a target flow's contention-induced drop against a set of \
         competitors using the paper's offline-profiling method."
  in
  let params = params_args cli in
  let target, competitors =
    match Cli.parse cli ~start:2 Sys.argv with
    | target :: (_ :: _ as competitors) -> (target, competitors)
    | _ -> Cli.die cli "expected a target flow and at least one competitor"
  in
  let params = params () in
  let t = List.hd (parse_kinds cli [ target ]) in
  let cs = parse_kinds cli competitors in
  let targets = List.sort_uniq compare (t :: cs) in
  Printf.printf "profiling %d flow types offline...\n%!" (List.length targets);
  let p = Ppp_core.Predictor.build ~params ~targets () in
  let drop = Ppp_core.Predictor.predict_drop p ~target:t ~competitors:cs in
  Printf.printf
    "predicted drop of %s against [%s]: %.2f%% (predicted throughput %.0f \
     pps)\n"
    (Ppp_apps.App.name t)
    (String.concat ", " (List.map Ppp_apps.App.name cs))
    (100.0 *. drop)
    (Ppp_core.Predictor.predict_throughput p ~target:t ~competitors:cs)

let capture_main () =
  let cli =
    Cli.create ~prog:"repro capture [options] FLOW"
      ~summary:
        "Write a flow type's generated traffic to a standard pcap file \
         (inspectable with tcpdump/wireshark; replayable with \
         Ppp_traffic.Pcap.replay)."
  in
  let params = params_args cli in
  let count =
    Cli.int cli [ "--count"; "-n" ] ~docv:"N" ~doc:"Packets to capture." 1000
  in
  let out =
    Cli.string cli [ "--output"; "-o" ] ~docv:"FILE" ~doc:"Output pcap."
      "capture.pcap"
  in
  let name =
    match Cli.parse cli ~start:2 Sys.argv with
    | [ name ] -> name
    | _ -> Cli.die cli "expected exactly one flow type"
  in
  let params = params () in
  if !count < 1 then Cli.die cli "--count must be >= 1";
  let kind = List.hd (parse_kinds cli [ name ]) in
  check_output_file !out;
  let heap = Ppp_simmem.Heap.create ~node:0 in
  let rng = Ppp_util.Rng.create ~seed:params.Ppp_core.Runner.seed in
  let built =
    Ppp_apps.App.build kind ~heap ~rng
      ~scale:params.Ppp_core.Runner.config.Ppp_hw.Machine.scale
  in
  let cap = Ppp_traffic.Pcap.create () in
  let pkt = Ppp_net.Packet.create 60 in
  let rec capture n =
    if n < !count then
      match Ppp_traffic.Source.fill built.Ppp_apps.App.source pkt with
      | Ppp_traffic.Source.Filled ->
          Ppp_traffic.Pcap.append cap pkt;
          capture (n + 1)
      | Ppp_traffic.Source.Exhausted -> n
    else n
  in
  let n = capture 0 in
  Ppp_traffic.Pcap.save cap !out;
  Printf.printf "wrote %d %s packets to %s\n" n (Ppp_apps.App.name kind) !out

(* --- monitor --- *)

(* A margin of nan or inf parses as a float but disarms its alarm: no
   comparison with nan holds, and no excess exceeds inf. *)
let float_arg cli r ~name =
  match float_of_string_opt !r with
  | Some v when Float.is_finite v -> v
  | _ ->
      Cli.die cli (Printf.sprintf "%s expects a finite number, got %S" name !r)

let monitor_main () =
  let cli =
    Cli.create ~prog:"repro monitor [options] FLOW..."
      ~summary:
        "Co-run an ad-hoc set of flows (one per core) under the online \
         contention monitor: profile each flow solo, stream the co-run \
         through the prediction-violation and hidden-aggressor detectors, \
         and report verdicts."
  in
  let params = params_args cli in
  let telemetry = telemetry_args cli in
  let hysteresis =
    Cli.int cli [ "--hysteresis" ] ~docv:"K"
      ~doc:"Consecutive slices needed to arm or release an alarm." 3
  in
  let margin =
    Cli.string cli [ "--margin" ] ~docv:"FRAC"
      ~doc:
        "Hidden-aggressor margin: fractional excess over the profiled L3 \
         refs/sec that counts as aggressive."
      "0.5"
  in
  let drop_margin =
    Cli.string cli [ "--drop-margin" ] ~docv:"FRAC"
      ~doc:
        "Prediction-violation margin: absolute drop excess over the \
         predicted drop that counts as degraded."
      "0.1"
  in
  let monitor_out =
    Cli.opt_string cli [ "--monitor-out" ] ~docv:"DIR"
      ~doc:
        "Write the monitor's interpreted outputs into DIR: alerts.json \
         (typed events, verdicts, throttle recommendations) and monitor.csv \
         (per-slice timeline). Both are byte-deterministic."
  in
  let closed_loop =
    Cli.flag cli [ "--closed-loop" ]
      ~doc:
        "After the monitored run, apply the detector's throttle-budget \
         recommendations and re-run under the monitor to verify recovery."
  in
  let names =
    match Cli.parse cli ~start:2 Sys.argv with
    | [] -> Cli.die cli "expected at least one flow type"
    | names -> names
  in
  let params = params () and telemetry = telemetry () in
  if !hysteresis < 1 then Cli.die cli "--hysteresis must be >= 1";
  let margin = float_arg cli margin ~name:"--margin" in
  let drop_margin = float_arg cli drop_margin ~name:"--drop-margin" in
  check_flows_fit cli params names;
  Option.iter Ppp_telemetry.Export.ensure_dir !monitor_out;
  setup_telemetry params telemetry;
  let kinds = parse_kinds cli names in
  let specs = local_specs params kinds in
  let uniq = List.sort_uniq compare kinds in
  Printf.printf "profiling %d flow types offline...\n%!" (List.length uniq);
  let predictor =
    Ppp_core.Predictor.build ~params
      ~levels:Ppp_experiments.Monitor_exp.default_levels ~targets:uniq ()
  in
  let det_config =
    {
      (Ppp_monitor.Detector.default_config
         ~sample_cycles:(effective_sample_cycles params telemetry))
      with
      Ppp_monitor.Detector.hysteresis = !hysteresis;
      aggressor_margin = margin;
      drop_margin;
    }
  in
  let profiles =
    List.mapi
      (fun i kind ->
        Ppp_monitor.Detector.profile ~label:(Ppp_apps.App.name kind) ~core:i
          ~predict_drop:
            (Ppp_core.Predictor.predict_drop_at predictor ~target:kind)
          (Ppp_core.Predictor.solo predictor kind))
      kinds
  in
  (* [budgets] throttles the listed cores to their L3 refs/sec budget. *)
  let monitored_run ~cell ~budgets =
    let params = Ppp_core.Runner.Params.with_cell cell params in
    let (_ : Ppp_hw.Engine.result list), (), det =
      Ppp_monitor.Report.monitored_run ~params ~config:det_config ~budgets
        profiles (fun hier ~heaps ~rng ->
          (Ppp_core.Runner.spec_flows ~params specs hier ~heaps ~rng, ()))
    in
    Ppp_util.Table.print (Ppp_monitor.Report.verdict_table det);
    print_string (Ppp_monitor.Report.events_text det);
    det
  in
  let write_monitor_dir dir det =
    Ppp_telemetry.Export.write_monitor_dir ~dir
      ~alerts:(Ppp_monitor.Report.alerts_json det)
      ~timeline_csv:(Ppp_monitor.Report.timeline_csv det);
    Printf.eprintf "wrote alerts.json, monitor.csv to %s/\n%!" dir
  in
  let det = monitored_run ~cell:"monitor" ~budgets:[] in
  Option.iter (fun dir -> write_monitor_dir dir det) !monitor_out;
  (if !closed_loop then
     match Ppp_monitor.Detector.budgets det with
     | [] ->
         Printf.printf
           "\nclosed loop: no throttle recommendations; nothing to apply\n"
     | budgets ->
         Printf.printf "\nclosed loop: throttling %s\n%!"
           (String.concat ", "
              (List.map
                 (fun (core, budget) ->
                   Printf.sprintf "core %d to %.1fM L3 refs/s" core
                     (budget /. 1e6))
                 budgets));
         let det = monitored_run ~cell:"monitor/closed-loop" ~budgets in
         Option.iter
           (fun dir ->
             write_monitor_dir (Filename.concat dir "closed_loop") det)
           !monitor_out);
  finish_telemetry params telemetry

(* --- dispatch --- *)

let toplevel_usage =
  "repro — reproduction of 'Toward Predictable Performance in Software \
   Packet-Processing Platforms' (NSDI 2012).\n\
   usage: repro COMMAND [options] [args]\n\
  \  list     List available experiments.\n\
  \  run      Run one or more experiments by id.\n\
  \  all      Run every experiment (the full reproduction).\n\
  \  mix      Co-run an ad-hoc set of flows (one per core).\n\
  \  top      Profile experiments and print the per-function hot-spot report.\n\
  \  monitor  Co-run flows under the online contention monitor.\n\
  \  predict  Predict contention-induced drop from offline profiles.\n\
  \  capture  Write a flow type's generated traffic to a pcap file.\n\
   Run `repro COMMAND --help` for the command's options.\n"

let main () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "list" -> list_main ()
  | "run" -> run_all_main ~all:false ()
  | "all" -> run_all_main ~all:true ()
  | "mix" -> mix_main ()
  | "top" -> top_main ()
  | "monitor" -> monitor_main ()
  | "predict" -> predict_main ()
  | "capture" -> capture_main ()
  | "--help" | "-h" ->
      print_string toplevel_usage;
      exit 0
  | "" ->
      prerr_string toplevel_usage;
      exit 2
  | cmd ->
      prerr_endline ("repro: unknown command " ^ cmd);
      prerr_string toplevel_usage;
      exit 2

(* The libraries reject inputs the flag checks cannot see, such as a
   window too short for one packet, with Invalid_argument or Failure, and an
   output path that cannot be written fails with Sys_error or Unix_error:
   one line and exit 2, like any other bad input. *)
let () =
  try main () with
  | Invalid_argument msg | Failure msg | Sys_error msg ->
      prerr_endline ("repro: " ^ msg);
      exit 2
  | Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "repro: %s %s: %s\n" fn arg (Unix.error_message err);
      exit 2
