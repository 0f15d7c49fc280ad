(* The four workloads. Each is a batch job run closed-loop, one job at a
   time, in one domain: a job is either one pass of the tiny suite or one
   Engine.run of a mix on the scaled machine. The seed reaches the program
   only as the seed of its generated inputs. *)

module R = Ppp_core.Runner
module A = Ppp_apps.App
module Output = Ppp_experiments.Output
module Rec = Ppp_telemetry.Recorder

type ctx = {
  seed : int;
  seconds : int;
  digests : Digests.table;
  checks : Checks.t;
  tracer : Spans.t;  (** used by traced runs only *)
}

let deadline ctx = Clock.now_ns () + (ctx.seconds * 1_000_000_000)
let sec ns = ns *. 1e-9

(* The per-job samples behind a median, for the reader of the log. *)
let print_samples name ns =
  Printf.printf "samples %s n=%d: %s\n" name (List.length ns)
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.4f" (sec (float_of_int x))) ns))

(* Until the deadline, and at least [min] times; results in order. *)
let repeat ~min ~deadline_ns f =
  let acc = ref [] and n = ref 0 in
  while !n < min || Clock.now_ns () < deadline_ns do
    acc := f () :: !acc;
    incr n
  done;
  List.rev !acc

(* The checks metrics are added once every check has run (Main). *)
let end_to_end ~wall_s ~setup_s ~packets ~instructions =
  Report.
    [
      m "wall_s" "s" wall_s;
      m "setup_s" "s" setup_s;
      m "sim_pkts_per_s" "1/s" (float_of_int packets /. wall_s);
      m "sim_instr_per_s" "1/s" (float_of_int instructions /. wall_s);
      m "peak_heap_mb" "MB" (Report.peak_heap_mb ());
    ]

(* Per-layer metrics are the same set on every workload; a layer the
   workload does not reach reads 0 (see perfbench/README.md). *)
let per_layer ~shares ~(runner : Runner_spans.stats) ~abs_err_pp ~(l : Anatomy.layers)
    ~calib_ns ~trace_overhead =
  let share id = Option.value (List.assoc_opt id shares) ~default:0.0 in
  Report.
    [
      m "experiments.fig2_share" "share" (share "fig2");
      m "experiments.fig4_share" "share" (share "fig4");
      m "experiments.fig5_share" "share" (share "fig5");
      m "experiments.fig8_share" "share" (share "fig8");
      m "runner.calls" "count" (float_of_int runner.Runner_spans.calls);
      m "runner.distinct_calls" "count" (float_of_int runner.distinct);
      m "runner.repeat_share" "share"
        (1.0 -. (float_of_int runner.distinct /. float_of_int (max 1 runner.calls)));
      m "runner.call_p50_ms" "ms" runner.p50_ms;
      m "runner.call_p90_ms" "ms" runner.p90_ms;
      m "predict.abs_err_pp" "pp" abs_err_pp;
      m "click.tracegen_ns_per_pkt" "ns" l.Anatomy.tracegen_ns_per_pkt;
      m "click.tracegen_share" "share" l.tracegen_share;
      m "click.ops_per_pkt" "count" l.ops_per_pkt;
      m "traffic.fill_ns" "ns" l.fill_ns;
      m "hw.hierarchy_ns_per_access" "ns" l.hierarchy_ns_per_access;
      m "hw.accesses" "count" (float_of_int l.accesses);
      m "hw.l3_miss_ratio" "share" l.l3_miss_ratio;
      m "hw.engine_self_ns_per_op" "ns" l.engine_self_ns_per_op;
      m "hw.engine_alloc_bytes_per_op" "B" l.alloc_bytes_per_op;
      m "hw.observe_overhead" "share" l.observe_overhead;
      m "host.calib_ns" "ns" calib_ns;
      m "trace.overhead" "share" trace_overhead;
    ]

(* ---- suite_tiny: fig2, fig4, fig5 and fig8 on tiny, quick windows ---- *)

module Suite = struct
  let ids = [ "fig2"; "fig4"; "fig5"; "fig8" ]
  let params seed = R.Params.with_seed seed R.Params.quick
  let key id = "suite_tiny/" ^ id

  (* The fig2 cell IP vs MON, as placed on tiny: where a suite run's host
     time goes inside the engine. *)
  let cell = [ R.flow_on ~node:0 ~core:0 A.IP; R.flow_on ~node:0 ~core:1 A.MON ]

  let experiment id =
    match Ppp_experiments.Registry.find id with
    | Some e -> e
    | None -> failwith ("perfbench: experiment not registered: " ^ id)

  type pass = {
    outs : (string * Output.t * int) list;  (** id, output, host ns *)
    total_ns : int;
    runner : Ppp_telemetry.Span.t list;  (** traced passes only *)
  }

  let output p id = match List.find (fun (i, _, _) -> i = id) p.outs with _, o, _ -> o
  let time_of p id = match List.find (fun (i, _, _) -> i = id) p.outs with _, _, ns -> ns

  let run_pass ?tracer ~params () =
    let runner = ref [] in
    let one id =
      let e = experiment id in
      let go () = Clock.time (fun () -> e.Ppp_experiments.Registry.run ~params ()) in
      let out, ns =
        match tracer with
        | None -> go ()
        | Some t ->
            Spans.with_span t ~cat:"experiments" ("experiment/" ^ id) (fun sid ->
                let r = go () in
                runner := !runner @ Runner_spans.collect ~tracer:t ~parent:sid;
                r)
      in
      (id, out, ns)
    in
    let outs, total_ns = Clock.time (fun () -> List.map one ids) in
    { outs; total_ns; runner = !runner }

  (* The set-up each of the suite's Runner.run calls pays: the tiny
     machine, its heaps and one flow of each realistic kind. *)
  let setup_ns params =
    snd
      (Clock.time (fun () ->
           Anatomy.build ~params (List.map (fun k -> R.flow_on ~node:0 ~core:0 k) A.realistic)))

  let read_file path =
    try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

  (* fig8: mean |predicted - measured| drop over its cells, in points. *)
  let abs_err_pp (out : Output.t) =
    let module J = Ppp_telemetry.Json in
    let num = function J.Float f -> f | J.Int i -> float_of_int i | _ -> nan in
    let err = function
      | J.Obj c -> 100.0 *. Float.abs (num (List.assoc "predicted_drop" c) -. num (List.assoc "measured_drop" c))
      | _ -> nan
    in
    match out.Output.data with
    | J.Obj kv -> (
        match List.assoc_opt "cells" kv with
        | Some (J.Arr (_ :: _ as cells)) ->
            List.fold_left (fun acc c -> acc +. err c) 0.0 cells /. float_of_int (List.length cells)
        | _ -> nan)
    | _ -> nan

  (* Every pass must render the same text, equal to the recorded digest
     (and, at the golden seed, to the committed snapshot), with only finite
     numbers in its data. *)
  let check_outputs ctx passes =
    let c = ctx.checks in
    List.iter
      (fun id ->
        let outs = List.map (fun p -> output p id) passes in
        let texts = List.map (fun (o : Output.t) -> o.Output.text) outs in
        let d = Digests.of_text (List.hd texts) in
        Checks.all_equal c (id ^ " repeats identical") texts;
        Checks.against c (id ^ " digest vs recorded")
          ~reference:(Digests.find ctx.digests ~key:(key id) ~seed:ctx.seed)
          ~actual:d;
        if ctx.seed = R.Params.quick.R.seed then
          Checks.against c (id ^ " text vs golden")
            ~reference:
              (Option.map Digests.of_text
                 (read_file (Filename.concat "test/golden" (id ^ ".expected"))))
            ~actual:d;
        Checks.record c (id ^ " data finite")
          (if List.for_all (fun (o : Output.t) -> Checks.json_finite o.Output.data) outs
           then Checks.Pass
           else Checks.Fail "non-finite number in data"))
      ids

  let untraced ctx =
    let params = params ctx.seed in
    (* Set-up samples are spread over the run, 10 before each pass, so
       they see the same host conditions as the passes. The first 10 run
       cold (code, allocator) and are dropped. *)
    let setups = ref [] in
    let sample_setups () = setups := List.init 10 (fun _ -> setup_ns params) @ !setups in
    sample_setups ();
    setups := [];
    sample_setups ();
    (* Warm-up pass, untimed: the recorder samples each window once, which
       counts the simulated packets and instructions of a pass. *)
    Rec.reset ();
    Rec.configure ~sample_cycles:params.R.measure_cycles ();
    let census = run_pass ~params () in
    let packets, instructions =
      List.fold_left
        (fun (p, i) s ->
          let t = Ppp_telemetry.Timeseries.sum_slices s in
          (p + t.Ppp_telemetry.Timeseries.packets, i + t.instructions))
        (0, 0) (Rec.series ())
    in
    Rec.reset ();
    let passes =
      repeat ~min:3 ~deadline_ns:(deadline ctx) (fun () ->
          sample_setups ();
          run_pass ~params ())
    in
    check_outputs ctx (census :: passes);
    print_samples "setup_s" !setups;
    print_samples "wall_s" (List.map (fun p -> p.total_ns) passes);
    end_to_end
      ~wall_s:(sec (Stats.median_int (List.map (fun p -> p.total_ns) passes)))
      ~setup_s:(sec (Stats.median_int !setups))
      ~packets ~instructions

  let traced ctx ~calib_ns =
    let params = params ctx.seed in
    let tracer = ctx.tracer in
    let deadline_ns = deadline ctx in
    let plain = ref [] and traced = ref [] in
    Spans.with_span tracer ~cat:"bench" "workload/suite_tiny" (fun _ ->
        ignore
          (repeat ~min:1 ~deadline_ns (fun () ->
               plain :=
                 Spans.with_span tracer ~cat:"bench" "untraced pass" (fun _ -> run_pass ~params ())
                 :: !plain;
               Runner_spans.start ();
               let p =
                 Spans.with_span tracer ~cat:"bench" "suite.pass" (fun _ ->
                     run_pass ~tracer ~params ())
               in
               Runner_spans.stop ();
               traced := p :: !traced)));
    let plain = List.rev !plain and traced = List.rev !traced in
    let l =
      Spans.with_span tracer ~cat:"bench" "cell/fig2 IP-MON" (fun _ ->
          Anatomy.measure ~tracer ~params ~observed:false ~min_rounds:10
            ~deadline_ns:(Clock.now_ns ()) cell)
    in
    check_outputs ctx (plain @ traced);
    Checks.all_equal ctx.checks "cell runs identical" l.Anatomy.digests;
    let med f ps = Stats.median_int (List.map f ps) in
    let total = med (fun p -> p.total_ns) plain in
    per_layer
      ~shares:(List.map (fun id -> (id, med (fun p -> time_of p id) plain /. total)) ids)
      ~runner:(Runner_spans.stats (List.hd traced).runner)
      ~abs_err_pp:(abs_err_pp (output (List.hd plain) "fig8"))
      ~l ~calib_ns
      ~trace_overhead:((med (fun p -> p.total_ns) traced /. total) -. 1.0)

  let record seed =
    let p = run_pass ~params:(params seed) () in
    List.map (fun id -> Digests.line ~key:(key id) ~seed (Digests.of_text (output p id).Output.text)) ids
end

(* ---- the mixes: one Engine.run on the scaled machine, data on node 0 ---- *)

module Mix = struct
  type t = { name : string; specs : R.spec list; observed : bool; digest_key : string }

  let on_node0 kinds = List.mapi (fun core kind -> R.flow_on ~node:0 ~core kind) kinds
  let contended = on_node0 (A.IP :: List.init 5 (fun _ -> A.MON))

  let all =
    [
      { name = "contended_ip"; specs = contended; observed = false; digest_key = "contended_ip" };
      {
        name = "crypto_re";
        specs = on_node0 [ A.VPN; A.VPN; A.VPN; A.RE; A.RE; A.RE ];
        observed = false;
        digest_key = "crypto_re";
      };
      (* The contended_ip simulation under the profiler and a probe: its
         results must be contended_ip's. *)
      { name = "contended_observed"; specs = contended; observed = true; digest_key = "contended_ip" };
    ]

  let params seed = R.Params.with_seed seed R.Params.default

  let check_digest ctx mix d =
    Checks.against ctx.checks "digest vs recorded"
      ~reference:(Digests.find ctx.digests ~key:mix.digest_key ~seed:ctx.seed)
      ~actual:d

  let untraced ctx mix =
    let params = params ctx.seed in
    let samples =
      repeat ~min:3 ~deadline_ns:(deadline ctx) (fun () ->
          Anatomy.sample ~params ~observed:mix.observed mix.specs)
    in
    let first = List.hd samples in
    let digests = List.map (fun s -> Digests.of_results s.Anatomy.results) samples in
    let d = List.hd digests in
    Checks.all_equal ctx.checks "repeats identical" digests;
    check_digest ctx mix d;
    if mix.observed then begin
      let plain = Anatomy.sample ~params ~observed:false mix.specs in
      Checks.equal ctx.checks "observed = plain" ~expected:(Digests.of_results plain.results)
        ~actual:d;
      Checks.equal ctx.checks "probe slices sum to window packets"
        ~expected:(string_of_int (Anatomy.packets first.results))
        ~actual:(string_of_int first.sliced)
    end;
    let med f = Stats.median_int (List.map f samples) in
    print_samples "setup_s" (List.map (fun s -> s.Anatomy.setup_ns) samples);
    print_samples "wall_s" (List.map (fun s -> s.Anatomy.run_ns) samples);
    end_to_end
      ~wall_s:(sec (med (fun s -> s.Anatomy.run_ns)))
      ~setup_s:(sec (med (fun s -> s.Anatomy.setup_ns)))
      ~packets:(Anatomy.packets first.results)
      ~instructions:(Anatomy.instructions first.results)

  let traced ctx ~calib_ns mix =
    let params = params ctx.seed in
    let tracer = ctx.tracer in
    let deadline_ns = deadline ctx in
    let l, runner =
      Spans.with_span tracer ~cat:"bench" ("workload/" ^ mix.name) (fun _ ->
          let l =
            Anatomy.measure ~tracer ~params ~observed:mix.observed ~min_rounds:2 ~deadline_ns
              mix.specs
          in
          (* The same simulation through Runner.run, with its spans on. *)
          Runner_spans.start ();
          let runner, rs =
            Spans.with_span tracer ~cat:"bench" "runner call" (fun id ->
                let obs = Anatomy.observers ~params ~observed:mix.observed in
                let rs =
                  R.run ~params:(R.Params.with_profile mix.observed params) ?probe:obs.probe
                    mix.specs
                in
                (Runner_spans.collect ~tracer ~parent:id, rs))
          in
          Runner_spans.stop ();
          Checks.equal ctx.checks "Runner.run = direct Engine.run"
            ~expected:(Digests.of_results l.Anatomy.own_results)
            ~actual:(Digests.of_results rs);
          (l, runner))
    in
    Checks.all_equal ctx.checks "plain, observed, traced runs identical" l.Anatomy.digests;
    check_digest ctx mix (List.hd l.digests);
    per_layer ~shares:[] ~runner:(Runner_spans.stats runner) ~abs_err_pp:0.0 ~l ~calib_ns
      ~trace_overhead:((l.traced_ns /. l.own_ns) -. 1.0)

  let record mix seed =
    let s = Anatomy.sample ~params:(params seed) ~observed:false mix.specs in
    [ Digests.line ~key:mix.digest_key ~seed (Digests.of_results s.Anatomy.results) ]
end

let names = "suite_tiny" :: List.map (fun m -> m.Mix.name) Mix.all
let find_mix name = List.find_opt (fun m -> m.Mix.name = name) Mix.all
