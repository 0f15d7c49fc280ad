(* The engine perf gate: time the fig2-sized engine workloads and audit the
   hot paths' allocation, then write the JSON report (BENCH_engine.json by
   default) that CI compares against the committed baseline. Every table
   and figure of the paper is regenerated by `repro all`. *)

module Cli = Ppp_util.Cli

let cli =
  Cli.create ~prog:"bench [options]"
    ~summary:
      "Measure the engine hot path (solo/contended/probed/profiled \
       workloads plus hit-path, flow-table and source-fill allocation \
       audits) and write the perf-gate JSON report."

let quick =
  Cli.flag cli [ "--quick" ]
    ~doc:"Quarter-length measurement windows (faster, noisier)."

let batch =
  Cli.int cli [ "--batch" ] ~docv:"N"
    ~doc:
      "Engine burst budget: trace ops a scheduled core may retire per \
       scheduling decision. Output is byte-identical for any value >= 1."
    Ppp_core.Runner.default_params.Ppp_core.Runner.batch

let perf_gate_out =
  Cli.string cli [ "--perf-gate-out" ] ~docv:"FILE"
    ~doc:"Where the report is written." "BENCH_engine.json"

let perf_gate_runs =
  Cli.int cli [ "--perf-gate-runs" ] ~docv:"N"
    ~doc:
      "Repetitions per workload; the best (least-interrupted) wall time of \
       the N is reported. 0 = the gate's default (3, or 1 with --quick)."
    0

let () =
  (match Cli.parse cli Sys.argv with
  | [] -> ()
  | a :: _ -> Cli.die cli (Printf.sprintf "unexpected argument %S" a));
  if !batch < 1 then Cli.die cli "--batch must be >= 1";
  if !perf_gate_runs < 0 then Cli.die cli "--perf-gate-runs must be >= 0";
  let out = !perf_gate_out and quick = !quick and batch = !batch in
  let report =
    match !perf_gate_runs with
    | 0 -> Ppp_core.Perf_gate.run ~quick ~batch ()
    | runs -> Ppp_core.Perf_gate.run ~quick ~runs ~batch ()
  in
  Ppp_telemetry.Json.write_file out (Ppp_core.Perf_gate.to_json report);
  List.iter
    (fun (m : Ppp_core.Perf_gate.measurement) ->
      Printf.printf "%-10s %d flows  %.3fs  %d ops  %.3e ops/s  %.2f B/op\n"
        m.Ppp_core.Perf_gate.name m.Ppp_core.Perf_gate.flows
        m.Ppp_core.Perf_gate.wall_s m.Ppp_core.Perf_gate.engine_ops
        m.Ppp_core.Perf_gate.ops_per_sec
        m.Ppp_core.Perf_gate.allocated_bytes_per_op)
    report.Ppp_core.Perf_gate.workloads;
  let h = report.Ppp_core.Perf_gate.hit in
  Printf.printf "hit-path   %d accesses  %.0f bytes  %.4f B/access  zero_alloc=%b\n"
    h.Ppp_core.Perf_gate.accesses h.Ppp_core.Perf_gate.allocated_bytes
    h.Ppp_core.Perf_gate.bytes_per_access h.Ppp_core.Perf_gate.zero_alloc;
  let ft = report.Ppp_core.Perf_gate.flow_table in
  Printf.printf
    "flow-table %d lookups  %.0f%% hits  %.3e lookups/s  %.4f B/lookup  \
     zero_alloc=%b\n"
    ft.Ppp_core.Perf_gate.lookups
    (100.0 *. ft.Ppp_core.Perf_gate.hit_fraction)
    ft.Ppp_core.Perf_gate.lookups_per_sec
    ft.Ppp_core.Perf_gate.bytes_per_lookup
    ft.Ppp_core.Perf_gate.ft_zero_alloc;
  let sf = report.Ppp_core.Perf_gate.source_fill in
  Printf.printf
    "source-fill %d fills  %.3e fills/s  %.4f B/fill  zero_alloc=%b\n"
    sf.Ppp_core.Perf_gate.fills sf.Ppp_core.Perf_gate.fills_per_sec
    sf.Ppp_core.Perf_gate.bytes_per_fill sf.Ppp_core.Perf_gate.sf_zero_alloc;
  Printf.printf "wrote %s\n%!" out
