(* Render one registered experiment under the pinned golden parameters:
   tiny machine, seed 42, quick windows, sequential execution. The dune
   rules in this directory diff its text and its --json envelope against
   the committed <id>.expected and <id>_json.expected snapshots;
   `dune promote` updates them. *)

let golden_params = Ppp_core.Runner.Params.quick

(* Slice length for the telemetry snapshots: 4 slices over the 1 M-cycle
   measurement window. *)
let golden_sample_cycles = 250_000

(* The registered experiment [id] and its output under [params]. *)
let run ?(params = golden_params) id =
  match Ppp_experiments.Registry.find id with
  | Some e -> (e, e.Ppp_experiments.Registry.run ~params ())
  | None ->
      Printf.eprintf "golden_gen: unknown experiment %S\n" id;
      exit 1

let run_with_telemetry id =
  Ppp_telemetry.Recorder.configure ~sample_cycles:golden_sample_cycles
    ~spans:false ();
  Ppp_telemetry.Recorder.set_experiment id;
  (* The rendered tables are covered by the <id>.expected snapshots; here
     only the collected telemetry is printed. *)
  ignore (run id)

let () =
  (* Snapshots are generated sequentially; the determinism suite separately
     asserts that any job count reproduces them byte-for-byte. *)
  Ppp_core.Parallel.set_jobs 1;
  match Sys.argv with
  | [| _; "trace"; id |] ->
      run_with_telemetry id;
      let meta =
        [
          ("tool", Ppp_telemetry.Json.Str "golden_gen");
          ("machine", Ppp_telemetry.Json.Str "tiny");
          ("seed", Ppp_telemetry.Json.Int golden_params.Ppp_core.Runner.seed);
        ]
      in
      print_string
        (Ppp_telemetry.Json.to_string
           (Ppp_telemetry.Export.deterministic_trace ~meta));
      print_newline ()
  | [| _; "metrics"; id |] ->
      run_with_telemetry id;
      print_string (Ppp_telemetry.Csv.series_csv (Ppp_telemetry.Recorder.series ()))
  | [| _; "alerts"; "monitor" |] ->
      (* The monitor's interpreted alert stream for the loud (aggressor
         switches mid-run) phase: the alerts.json document byte-for-byte. *)
      let d = Ppp_experiments.Monitor_exp.measure ~params:golden_params () in
      print_string
        (Ppp_telemetry.Json.to_string
           d.Ppp_experiments.Monitor_exp.loud.Ppp_experiments.Monitor_exp
             .alerts);
      print_newline ()
  | [| _; "top"; id |] ->
      (* The `repro top <id>` hot-spot report: the experiment run under the
         per-tag profiler, rendered as the top-k table. Attribution is
         simulated-clock only and the report is keyed by tag name, so
         the snapshot is stable across job counts. *)
      ignore
        (run ~params:(Ppp_core.Runner.Params.with_profile true golden_params)
           id);
      print_string
        (Ppp_telemetry.Profile.top ~title:id
           (Ppp_telemetry.Recorder.profile ()))
  | [| _; id; json_file |] ->
      (* One run, both renderings: the text on stdout, and the
         `repro run <id> --json` envelope (the structured result wrapped in
         {id, title, paper_ref, data}) byte-for-byte in [json_file]. *)
      let e, out = run id in
      print_string out.Ppp_experiments.Output.text;
      Out_channel.with_open_text json_file (fun oc ->
          output_string oc
            (Ppp_telemetry.Json.to_string
               (Ppp_experiments.Registry.envelope e out));
          output_char oc '\n')
  | _ ->
      Printf.eprintf
        "usage: golden_gen <experiment-id> <json-file>\n\
        \       golden_gen [trace|metrics|alerts|top] <experiment-id>\n";
      exit 1
