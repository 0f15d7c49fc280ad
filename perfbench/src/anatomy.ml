(* One simulated co-run, built and run the way Runner.run does it, and its
   host time split into layers from outside:

   - trace generation: time inside each flow's [Flow.source] closure,
     measured by wrapping the closure;
   - hierarchy: a sample of the traces the run produced, replayed through a
     fresh [Hierarchy] with [access]/[dma_write]. This is an estimate: the
     replay's queueing times differ from the real run's;
   - engine self time: the rest of a traced [Engine.run];
   - traffic: a [Source.fill] loop over a twin of each flow's packet source,
     built from the same seed. *)

module E = Ppp_hw.Engine
module R = Ppp_core.Runner
module T = Ppp_hw.Trace

type built = { hier : Ppp_hw.Hierarchy.t; flows : E.flow list; apps : Ppp_click.Flow.t list }

(* The construction in Runner.run, step for step, so that a seed gives the
   same simulation here as there. *)
let build ?tracer ~(params : R.params) (specs : R.spec list) =
  let config = params.R.config in
  let hier =
    Spans.opt tracer ~cat:"hw" "machine.build" (fun () -> Ppp_hw.Machine.build config)
  in
  let heaps =
    Array.init config.Ppp_hw.Machine.topology.Ppp_hw.Topology.sockets (fun node ->
        Ppp_simmem.Heap.create ~node)
  in
  let rng = Ppp_util.Rng.create ~seed:params.R.seed in
  let apps =
    List.map
      (fun (s : R.spec) ->
        let label = Ppp_apps.App.name s.R.kind in
        Spans.opt tracer ~cat:"apps" ("app.flow/" ^ label) (fun () ->
            Ppp_apps.App.flow s.R.kind ~heap:heaps.(s.R.data_node)
              ~rng:(Ppp_util.Rng.split rng) ~scale:config.Ppp_hw.Machine.scale ~label
              ()))
      specs
  in
  let flows =
    List.map2
      (fun (s : R.spec) app ->
        {
          E.core = s.R.core;
          label = Ppp_apps.App.name s.R.kind;
          source = Ppp_click.Flow.source app;
        })
      specs apps
  in
  { hier; flows; apps }

(* The observed path: the per-element profiler plus a probe slicing the
   window in 20. The probe counts slice packets, so conservation against
   the window packet count can be checked. *)
type observers = { probe : E.probe option; attrib : Ppp_hw.Attrib.t option; sliced : int ref }

let observers ~(params : R.params) ~observed =
  let sliced = ref 0 in
  if not observed then { probe = None; attrib = None; sliced }
  else
    let cores = Ppp_hw.Topology.cores params.R.config.Ppp_hw.Machine.topology in
    {
      probe =
        Some
          {
            E.sample_cycles = max 1 (params.R.measure_cycles / 20);
            on_sample = (fun s -> sliced := !sliced + s.E.s_packets);
          };
      attrib = Some (Ppp_hw.Attrib.create ~cores);
      sliced;
    }

let run ~(params : R.params) obs b =
  E.run ?probe:obs.probe ?attrib:obs.attrib ~batch:params.R.batch b.hier ~flows:b.flows
    ~warmup_cycles:params.R.warmup_cycles ~measure_cycles:params.R.measure_cycles

let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs
let packets rs = sum (fun (r : E.result) -> r.E.packets) rs
let instructions rs = sum (fun (r : E.result) -> Ppp_hw.Counters.instructions r.E.counters) rs
let engine_ops rs = sum (fun (r : E.result) -> r.E.engine_ops) rs
let mem_refs rs = sum (fun (r : E.result) -> Ppp_hw.Counters.mem_refs r.E.counters) rs
let l3_refs rs = sum (fun (r : E.result) -> Ppp_hw.Counters.l3_refs r.E.counters) rs
let l3_misses rs = sum (fun (r : E.result) -> Ppp_hw.Counters.l3_misses r.E.counters) rs

(* One timed Engine.run on freshly built state. *)
type sample = {
  setup_ns : int;
  run_ns : int;
  alloc_bytes : float;
  results : E.result list;
  sliced : int;
}

let sample ~params ~observed specs =
  let b, setup_ns = Clock.time (fun () -> build ~params specs) in
  let obs = observers ~params ~observed in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let results, run_ns = Clock.time (fun () -> run ~params obs b) in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  { setup_ns; run_ns; alloc_bytes; results; sliced = !(obs.sliced) }

(* ---- the traced run ---- *)

type tap = {
  record : bool;
      (** a recording tap counts ops and copies traces for the replay; a
          timing tap only reads the clock, so its source times stay close
          to the untraced run's *)
  mutable src_ns : int;
  mutable pkts : int;
  mutable ops : int;
  mutable accesses : int;
  mutable budget : int;  (** ops still to copy for the replay *)
  recorded : int array Queue.t array;  (** per flow, traces in order *)
}

let is_access k = k = T.k_read || k = T.k_write || k = T.k_dma

let tap_source tap slot (src : E.source) : E.source =
 fun cycle ->
  let t0 = Clock.now_ns () in
  let item = src cycle in
  tap.src_ns <- tap.src_ns + (Clock.now_ns () - t0);
  let tr =
    match item with
    | E.Packet tr | E.Reordered tr ->
        tap.pkts <- tap.pkts + 1;
        tr
    | E.Idle tr -> tr
  in
  if tap.record then begin
    let n = T.length tr in
    let raw = T.raw_ops tr in
    tap.ops <- tap.ops + n;
    for i = 0 to n - 1 do
      if is_access (T.raw_kind raw.(i)) then tap.accesses <- tap.accesses + 1
    done;
    (* The trace is a view into the flow's builder, valid until the next
       call: copy it now. *)
    if tap.budget > 0 then begin
      Queue.push (Array.sub raw 0 n) tap.recorded.(slot);
      tap.budget <- tap.budget - n
    end
  end;
  item

(* Replays recorded traces round-robin by packet, each flow on its own
   core and clock, through a fresh hierarchy. Returns (ns, accesses). *)
let replay ~config ~cores (recorded : int array Queue.t array) =
  let hier = Ppp_hw.Machine.build config in
  let now = Array.make (Array.length recorded) 0 in
  let accesses = ref 0 in
  let t0 = Clock.now_ns () in
  let live = ref true in
  while !live do
    live := false;
    for slot = 0 to Array.length recorded - 1 do
      let q = recorded.(slot) in
      if not (Queue.is_empty q) then begin
        live := true;
        let core = cores.(slot) and ops = Queue.pop q in
        for i = 0 to Array.length ops - 1 do
          let w = ops.(i) in
          let k = T.raw_kind w and payload = T.raw_payload w in
          if k = T.k_read || k = T.k_write then begin
            incr accesses;
            now.(slot) <-
              now.(slot)
              + Ppp_hw.Hierarchy.access hier ~core ~write:(k = T.k_write) ~fn:(T.raw_fn w)
                  ~addr:payload ~now:now.(slot)
          end
          else if k = T.k_dma then begin
            incr accesses;
            Ppp_hw.Hierarchy.dma_write hier ~addr:payload ~now:now.(slot)
          end
          else now.(slot) <- now.(slot) + payload
        done
      end
    done
  done;
  (Clock.now_ns () - t0, !accesses)

(* Ops recorded for the hierarchy replay, across all flows. *)
let replay_budget = 2_000_000

type traced = {
  t_run_ns : int;
  tap : tap;
  t_results : E.result list;
  engine_span : int;
  engine_start : int;
}

let traced_sample ~tracer ~params ~observed ~record specs =
  let args = [ ("tap", if record then "recording" else "timing") ] in
  Spans.with_span tracer ~args ~cat:"bench" "iteration" (fun _ ->
      let b = Spans.with_span tracer ~cat:"bench" "setup" (fun _ -> build ~tracer ~params specs) in
      let n = List.length b.flows in
      let tap =
        {
          src_ns = 0;
          pkts = 0;
          ops = 0;
          accesses = 0;
          record;
          budget = replay_budget;
          recorded = Array.init n (fun _ -> Queue.create ());
        }
      in
      let b =
        { b with flows = List.mapi (fun i f -> { f with E.source = tap_source tap i f.E.source }) b.flows }
      in
      let obs = observers ~params ~observed in
      Gc.full_major ();
      let engine_start = Clock.now_ns () in
      let results, engine_span, t_run_ns =
        Spans.with_span tracer ~cat:"engine" "engine.run" (fun id ->
            let rs, ns = Clock.time (fun () -> run ~params obs b) in
            (rs, id, ns))
      in
      Spans.add tracer ~parent:engine_span ~cat:"click" ~name:"flow.source"
        ~args:[ ("aggregate", "true"); ("packets", string_of_int tap.pkts) ]
        ~start_ns:engine_start ~dur_ns:tap.src_ns ();
      { t_run_ns; tap; t_results = results; engine_span; engine_start })

(* A fill loop over twins of the flows' packet sources: ns per fill. Each
   source fills in chunks until it has run for [budget_ns]. *)
let fill_ns ~params specs =
  let twin = build ~params specs in
  let pkt = Ppp_net.Packet.create 60 in
  let budget_ns = 50_000_000 in
  let fills = ref 0 and ns = ref 0 in
  List.iter
    (fun app ->
      let src = Ppp_click.Flow.packet_source app in
      let t0 = Clock.now_ns () in
      while Clock.now_ns () - t0 < budget_ns do
        for _ = 1 to 64 do
          match Ppp_traffic.Source.fill src pkt with
          | Ppp_traffic.Source.Filled | Ppp_traffic.Source.Exhausted -> ()
        done;
        fills := !fills + 64
      done;
      ns := !ns + (Clock.now_ns () - t0))
    twin.apps;
  float_of_int !ns /. float_of_int !fills

type layers = {
  own_ns : float;  (** median untraced Engine.run, the workload's own path *)
  traced_ns : float;  (** median traced Engine.run, own path *)
  observe_overhead : float;
  alloc_bytes_per_op : float;
  tracegen_ns_per_pkt : float;
  tracegen_share : float;
  ops_per_pkt : float;
  fill_ns : float;
  hierarchy_ns_per_access : float;
  accesses : int;
  l3_miss_ratio : float;
  engine_self_ns_per_op : float;
  digests : string list;  (** of every run made: plain, observed, traced *)
  own_results : E.result list;
}

(* One recording run first (exact counts, traces for the replay), then
   rounds of (plain, observed, traced) runs until [deadline_ns], at least
   [min_rounds]. [observed] selects the workload's own path; the observed
   path is always measured too, against plain, for observe_overhead. *)
let measure ~tracer ~params ~observed ~min_rounds ~deadline_ns specs =
  let recording = traced_sample ~tracer ~params ~observed ~record:true specs in
  let plain = ref [] and obs = ref [] and traced = ref [] in
  let i = ref 0 in
  while !i < min_rounds || Clock.now_ns () < deadline_ns do
    let untraced observed =
      Spans.with_span tracer ~cat:"bench" (if observed then "untraced observed" else "untraced plain")
        (fun _ -> sample ~params ~observed specs)
    in
    plain := untraced false :: !plain;
    obs := untraced true :: !obs;
    traced := traced_sample ~tracer ~params ~observed ~record:false specs :: !traced;
    incr i
  done;
  let med f l = Stats.median (List.map f l) in
  let run_ns s = float_of_int s.run_ns in
  let own = if observed then !obs else !plain in
  let counts = recording.tap in
  let cores = Array.of_list (List.map (fun (s : R.spec) -> s.R.core) specs) in
  let replay_ns, replayed =
    Spans.with_span tracer ~cat:"hw" "hierarchy.replay" (fun _ ->
        replay ~config:params.R.config ~cores counts.recorded)
  in
  let hier_ns_per_access = float_of_int replay_ns /. float_of_int (max 1 replayed) in
  let hier_est_ns = hier_ns_per_access *. float_of_int counts.accesses in
  List.iter
    (fun t ->
      Spans.add tracer ~parent:t.engine_span ~cat:"hw" ~name:"hierarchy.access"
        ~args:[ ("aggregate", "true"); ("estimate", "replay") ]
        ~start_ns:(t.engine_start + t.tap.src_ns) ~dur_ns:(int_of_float hier_est_ns) ())
    (recording :: !traced);
  let own_ns = med run_ns own in
  (* Source time and the rest of Engine.run are split within each traced
     run, so host noise between runs does not leak into the split. *)
  let src_ns = med (fun t -> float_of_int t.tap.src_ns) !traced in
  let rest_ns = med (fun t -> float_of_int (t.t_run_ns - t.tap.src_ns)) !traced in
  let results = (List.hd own).results in
  let ops = float_of_int (engine_ops results) in
  let fill =
    Spans.with_span tracer ~cat:"traffic" "source.fill loop" (fun _ -> fill_ns ~params specs)
  in
  {
    own_ns;
    traced_ns = med (fun t -> float_of_int t.t_run_ns) !traced;
    observe_overhead = (med run_ns !obs /. med run_ns !plain) -. 1.0;
    alloc_bytes_per_op = med (fun s -> s.alloc_bytes) own /. ops;
    tracegen_ns_per_pkt = src_ns /. float_of_int (max 1 counts.pkts);
    tracegen_share = med (fun t -> float_of_int t.tap.src_ns /. float_of_int t.t_run_ns) !traced;
    ops_per_pkt = float_of_int counts.ops /. float_of_int (max 1 counts.pkts);
    fill_ns = fill;
    hierarchy_ns_per_access = hier_ns_per_access;
    accesses = mem_refs results;
    l3_miss_ratio = float_of_int (l3_misses results) /. float_of_int (max 1 (l3_refs results));
    engine_self_ns_per_op = (rest_ns -. hier_est_ns) /. ops;
    digests =
      List.map (fun s -> Digests.of_results s.results) (!plain @ !obs)
      @ List.map (fun t -> Digests.of_results t.t_results) (recording :: !traced);
    own_results = results;
  }
