type spec = { kind : Ppp_apps.App.kind; core : int; data_node : int }

let flow_on ~node ~core kind = { kind; core; data_node = node }

type params = {
  config : Ppp_hw.Machine.config;
  seed : int;
  warmup_cycles : int;
  measure_cycles : int;
  batch : int;
  cell : string;
  profile : bool;
}

module Params = struct
  type t = params

  let default =
    {
      config = Ppp_hw.Machine.scaled;
      seed = 42;
      warmup_cycles = 3_000_000;
      measure_cycles = 10_000_000;
      batch = 32;
      cell = "";
      profile = false;
    }

  let quick =
    {
      default with
      config = Ppp_hw.Machine.tiny;
      warmup_cycles = 300_000;
      measure_cycles = 1_000_000;
    }

  let with_config config p = { p with config }
  let with_seed seed p = { p with seed }

  let with_windows ~warmup ~measure p =
    { p with warmup_cycles = warmup; measure_cycles = measure }

  let with_batch batch p = { p with batch }
  let with_cell cell p = { p with cell }
  let with_profile profile p = { p with profile }
  let sample_cycles p = max 1 (p.measure_cycles / 20)

  let validate p =
    if p.warmup_cycles < 0 then
      Error
        (Printf.sprintf "warmup window must be >= 0 cycles, got %d"
           p.warmup_cycles)
    else if p.measure_cycles < 1 then
      Error
        (Printf.sprintf "measurement window must be >= 1 cycle, got %d"
           p.measure_cycles)
    else if p.batch < 1 then
      Error (Printf.sprintf "batch must be >= 1, got %d" p.batch)
    else Ok ()
end

let run_with ?(params = Params.default) ?probe build =
  (match Params.validate params with
  | Ok () -> ()
  | Error e -> invalid_arg ("Runner.run: " ^ e));
  let t_wall = Ppp_telemetry.Span.now_s () in
  let config = params.config in
  let topo = config.Ppp_hw.Machine.topology in
  let hier = Ppp_hw.Machine.build config in
  let heaps =
    Array.init topo.Ppp_hw.Topology.sockets (fun node ->
        Ppp_simmem.Heap.create ~node)
  in
  let flows, extra =
    build hier ~heaps ~rng:(Ppp_util.Rng.create ~seed:params.seed)
  in
  if flows = [] then invalid_arg "Runner.run: no flows";
  List.iter
    (fun (f : Ppp_hw.Engine.flow) ->
      if f.Ppp_hw.Engine.core < 0
         || f.Ppp_hw.Engine.core >= Ppp_hw.Topology.cores topo
      then invalid_arg "Runner.run: core out of range")
    flows;
  (* Telemetry is a no-op unless the CLI configured the recorder. The
     sampler observes the cell's counters in simulated time (deterministic);
     the span observes the cell itself in wall-clock time. The engine takes
     a single probe, so a caller's probe sets the slice grid of its cell and
     the sampler records on that grid. *)
  let sampler =
    match Ppp_telemetry.Recorder.sampling () with
    | Some period ->
        let sample_cycles =
          match probe with
          | Some p -> p.Ppp_hw.Engine.sample_cycles
          | None -> period
        in
        Some (Ppp_telemetry.Sampler.create ~cell:params.cell ~sample_cycles)
    | None -> None
  in
  let probe =
    match (probe, Option.map Ppp_telemetry.Sampler.probe sampler) with
    | None, p | p, None -> p
    | Some a, Some b ->
        Some
          {
            a with
            Ppp_hw.Engine.on_sample =
              (fun s ->
                a.Ppp_hw.Engine.on_sample s;
                b.Ppp_hw.Engine.on_sample s);
          }
  in
  (* Attribution accumulators exist only when the caller asked to profile;
     the engine's unprofiled path is the hot one and stays untouched. *)
  let attrib =
    if params.profile then
      Some (Ppp_hw.Attrib.create ~cores:(Ppp_hw.Topology.cores topo))
    else None
  in
  let results =
    Ppp_hw.Engine.run ?probe ?attrib ~batch:params.batch hier ~flows
      ~warmup_cycles:params.warmup_cycles
      ~measure_cycles:params.measure_cycles
  in
  (match attrib with
  | Some at ->
      let label_of_core core =
        match
          List.find_opt
            (fun (f : Ppp_hw.Engine.flow) -> f.Ppp_hw.Engine.core = core)
            flows
        with
        | Some f -> f.Ppp_hw.Engine.label
        | None -> "(idle)"
      in
      Ppp_telemetry.Profile.record at
        ~cell:(if params.cell = "" then "run" else params.cell)
        ~flow:(fun ~core -> label_of_core core)
  | None -> ());
  (match sampler with
  | Some s ->
      Ppp_telemetry.Recorder.add_series
        (Ppp_telemetry.Sampler.series s
           ~experiment:(Ppp_telemetry.Recorder.current_experiment ())
           ~freq_hz:config.Ppp_hw.Machine.costs.Ppp_hw.Costs.freq_hz)
  | None -> ());
  if Ppp_telemetry.Recorder.spans_enabled () then
    Ppp_telemetry.Recorder.add_span
      {
        Ppp_telemetry.Span.name =
          (if params.cell = "" then "runner.run" else params.cell);
        cat = "runner";
        domain = (Domain.self () :> int);
        start_s = t_wall;
        dur_s = Ppp_telemetry.Span.now_s () -. t_wall;
        queue_s = 0.0;
        args =
          [
            ("seed", string_of_int params.seed);
            ("flows", string_of_int (List.length flows));
            ("config", config.Ppp_hw.Machine.name);
            (* A machine's name does not pin its costs (the ablation
               overrides them); with their digest, two spans share a key
               only when they share seed, flow count and machine. *)
            ( "costs",
              Digest.to_hex
                (Digest.string
                   (Marshal.to_string config.Ppp_hw.Machine.costs
                      [ Marshal.No_sharing ])) );
          ];
      };
  (results, extra)

let spec_flows ~params specs _hier ~heaps ~rng =
  List.map
    (fun spec ->
      if spec.data_node < 0 || spec.data_node >= Array.length heaps then
        invalid_arg "Runner.run: node out of range";
      let label = Ppp_apps.App.name spec.kind in
      let flow =
        Ppp_apps.App.flow spec.kind ~heap:heaps.(spec.data_node)
          ~rng:(Ppp_util.Rng.split rng)
          ~scale:params.config.Ppp_hw.Machine.scale ~label ()
      in
      { Ppp_hw.Engine.core = spec.core; label;
        source = Ppp_click.Flow.source flow })
    specs

let run ?(params = Params.default) ?probe specs =
  fst
    (run_with ~params ?probe (fun hier ~heaps ~rng ->
         (spec_flows ~params specs hier ~heaps ~rng, ())))

let cell_params params label =
  { params with seed = Ppp_util.Rng.derive ~seed:params.seed label;
    cell = label }

let solo ?(params = Params.default) kind =
  (* A pure function of (params, kind): the seed is derived from the kind's
     name, so a solo baseline computed anywhere — any experiment, any cell
     order, any job count — is the same simulation. *)
  let params = cell_params params ("solo/" ^ Ppp_apps.App.name kind) in
  match run ~params [ flow_on ~node:0 ~core:0 kind ] with
  | [ r ] -> r
  | _ -> assert false

let drop ~solo ~corun =
  let ts = solo.Ppp_hw.Engine.throughput_pps in
  if ts <= 0.0 then
    invalid_arg
      "Runner.drop: solo run completed no packets in its measurement window";
  (ts -. corun.Ppp_hw.Engine.throughput_pps) /. ts

let per_packet n ~packets =
  if packets <= 0 then
    invalid_arg
      "Runner.per_packet: no packet completed in the measurement window";
  float_of_int n /. float_of_int packets

let competing_refs_per_sec results ~target =
  List.fold_left
    (fun acc (r : Ppp_hw.Engine.result) ->
      if r.Ppp_hw.Engine.core = target.Ppp_hw.Engine.core then acc
      else acc +. r.Ppp_hw.Engine.l3_refs_per_sec)
    0.0 results
