open Ppp_core
module Detector = Ppp_monitor.Detector

(* Traffic realism: how far do the paper's stationary prediction and
   monitoring methods degrade when the traffic itself is non-stationary?

   The victim is a classification pipeline (check header -> flow-table fast
   path over a TSS slow path -> TTL) driven by one of three production
   source models — heavy-tailed flow sizes, Markov-modulated ON/OFF bursts,
   flow churn over a live-flow table — behind an RSS or Flow-Director
   steering model. Its sensitivity curve is calibrated the paper's way, on
   a *stationary* uniform twin against a SYN ramp; each cell then measures
   the real drop against 5 SYN_MAX co-runners, evaluates the stationary
   curve at the measured competing refs/sec (perfect-knowledge prediction),
   and lets the online monitor watch the co-run with no actual aggressor in
   the mix — every hidden-aggressor alert it raises is a false positive
   charged to traffic non-stationarity. Flow-Director cells additionally
   surface the steering model's reordering: one sequence inversion per flow
   migration, observed by the victim's per-flow reorder detector. *)

type cell = {
  model : string;  (** "heavy" | "onoff" | "churn" *)
  knob : string;  (** model-specific skew knob, e.g. "alpha=1.1" *)
  steering : string;  (** "rss" | "fdir" *)
  solo_pps : float;
  measured_drop : float;  (** vs 5 SYN_MAX co-runners *)
  predicted_drop : float;  (** stationary twin curve at measured refs *)
  abs_err : float;  (** |measured - predicted| *)
  false_alerts : int;  (** hidden-aggressor alerts; no aggressor exists *)
  reorders : int;  (** victim-observed sequence inversions (co-run) *)
  migrations : int;  (** Flow-Director flow migrations (co-run) *)
  evictions : int;  (** flow-table evictions (co-run) *)
  packets : int;  (** victim packets in the measured window (co-run) *)
  lat_p99_inorder : int;  (** victim p99 latency, in-order packets *)
  lat_p99_reordered : int;
      (** victim p99 latency, reordered packets (0 when none arrived out
          of order in the window — every RSS cell) *)
}

type data = {
  twin_solo_pps : float;
  curve_points : (float * float) list;  (** (competing refs/s, drop) *)
  cells : cell list;
}

(* One knob value per model stresses the method mildly, the other hard:
   alpha 1.9 vs 1.1 (tail weight), mean ON dwell 32 vs 512 packets (burst
   length), churn every 64 vs 8 packets (arrival rate). *)
type model_cfg =
  | Uniform  (** the stationary calibration twin — never a cell *)
  | Heavy of float  (** bounded-Pareto tail index *)
  | Onoff of int  (** mean ON dwell, packets *)
  | Churn of int  (** one departure+arrival per this many packets *)

let model_name = function
  | Uniform -> "uniform"
  | Heavy _ -> "heavy"
  | Onoff _ -> "onoff"
  | Churn _ -> "churn"

let knob_name = function
  | Uniform -> "-"
  | Heavy a -> Printf.sprintf "alpha=%.1f" a
  | Onoff on -> Printf.sprintf "on=%d" on
  | Churn every -> Printf.sprintf "churn=%d" every

(* Live-flow universe and classifier sizing, scaled down with the machine
   like every other working set. The flow table holds a quarter of the
   live set, so churn's never-repeating arrivals evict for real. *)
let universe scale = max 256 (16384 / scale)
let rule_count scale = max 16 (1024 / scale)
let mean_off = 256
let burst_flows = 4
let migrate_every = 256

let models = [ Heavy 1.9; Heavy 1.1; Onoff 32; Onoff 512; Churn 64; Churn 8 ]
let steerings = [ Ppp_traffic.Steering.Rss; Ppp_traffic.Steering.Flow_director ]

let uniform_source ~rng ~flows =
  let seqs = Array.make flows 0 in
  Ppp_traffic.Source.make ~name:"uniform"
    ~fill:(fun s pkt ->
      let f = Ppp_util.Rng.int rng flows in
      Ppp_traffic.Gen.fill_flow pkt ~flow:f ~wire_len:64;
      let seq = seqs.(f) in
      seqs.(f) <- seq + 1;
      Ppp_traffic.Source.set_meta s ~flow:f ~seq;
      Ppp_traffic.Source.Filled)
    ()

let model_source cfg ~u ~seed ~rng =
  match cfg with
  | Uniform -> uniform_source ~rng ~flows:u
  | Heavy alpha ->
      let ht = Ppp_traffic.Heavy_tail.create ~seed ~flows:u ~alpha () in
      Ppp_traffic.Heavy_tail.source ht ~rng
  | Onoff mean_on ->
      (* Background is the uniform twin; bursts take ids above it. *)
      let base = uniform_source ~rng ~flows:u in
      let oo =
        Ppp_traffic.Onoff.create ~mean_on ~mean_off ~burst_flows ~flow_base:u
          ()
      in
      Ppp_traffic.Onoff.source oo ~rng ~base
  | Churn every ->
      let ch = Ppp_traffic.Churn.create ~live:u ~churn_every:every in
      Ppp_traffic.Churn.source ch ~rng

(* The builder of one engine run of the victim pipeline under
   [cfg]+[steering], optionally against co-runners of [competitor] kind
   (built after the victim from the same stream, so the victim's simulation
   is identical either way). Its state is the victim flow, fast path and
   steering model whose counters the cell reads after the run. *)
let victim_mix ~(params : Runner.params) ~cfg ~steering ?competitor () hier
    ~heaps ~rng =
  let config = params.Runner.config in
  let heap = heaps.(0) in
  let u = universe config.Ppp_hw.Machine.scale in
  let rules =
    Ppp_classify.Rulegen.make ~rng:(Ppp_util.Rng.split rng)
      ~n:(rule_count config.Ppp_hw.Machine.scale)
  in
  let fp =
    Ppp_classify.Fastpath.create ~heap ~table_entries:(max 16 (u / 4))
      ~backend:Ppp_classify.Classifier.Tss rules
  in
  let inner =
    model_source cfg ~u ~seed:params.Runner.seed ~rng:(Ppp_util.Rng.split rng)
  in
  let st =
    Ppp_traffic.Steering.create ~migrate_every
      ~cores:(Ppp_hw.Machine.cores_per_socket config)
      steering
  in
  let elements =
    [
      Ppp_apps.Ip_elements.check_ip_header ();
      Ppp_classify.Fastpath.element fp;
      Ppp_apps.Ip_elements.dec_ip_ttl ();
    ]
  in
  let victim =
    Ppp_click.Flow.create ~heap ~label:"victim"
      ~source:(Ppp_traffic.Steering.source st inner)
      ~elements ()
  in
  (* One more split, unused, so the co-runners keep the streams the goldens
     pin. *)
  let (_ : Ppp_util.Rng.t) = Ppp_util.Rng.split rng in
  let competitors =
    match competitor with
    | None -> []
    | Some kind -> Exp_common.co_runners ~params kind hier ~heaps ~rng
  in
  ( { Ppp_hw.Engine.core = 0; label = "victim";
      source = Ppp_click.Flow.source victim }
    :: competitors,
    (victim, fp, st) )

(* An unmonitored run of [victim_mix]: the victim's result and every
   result. *)
let run_phase ~params ~cfg ~steering ?competitor () =
  let results, _ =
    Runner.run_with ~params (victim_mix ~params ~cfg ~steering ?competitor ())
  in
  (List.hd results, results)

(* The paper's offline calibration, on the stationary twin: solo baseline,
   then drop vs competing refs/sec along a SYN ramp (5 co-runners per
   level, the same shape the cells face). *)
let stationary_curve ~(params : Runner.params) =
  let solo_p = Runner.cell_params params "traffic/curve/solo" in
  let solo_r, _ =
    run_phase ~params:solo_p ~cfg:Uniform ~steering:Ppp_traffic.Steering.Rss
      ()
  in
  let points =
    List.map
      (fun (level : Ppp_apps.App.syn_params) ->
        let p =
          Runner.cell_params params
            (Printf.sprintf "traffic/curve/%d" level.Ppp_apps.App.reads)
        in
        let r, results =
          run_phase ~params:p ~cfg:Uniform ~steering:Ppp_traffic.Steering.Rss
            ~competitor:(Ppp_apps.App.SYN level) ()
        in
        ( Runner.competing_refs_per_sec results ~target:r,
          Runner.drop ~solo:solo_r ~corun:r ))
      Monitor_exp.default_levels
  in
  (solo_r, Ppp_util.Series.of_points ((0.0, 0.0) :: points))

let run_cell ~(params : Runner.params) ~curve
    ~(twin_solo : Ppp_hw.Engine.result) ~(syn_solo : Ppp_hw.Engine.result)
    ~cfg ~steering =
  let mname = model_name cfg in
  let sname = Ppp_traffic.Steering.model_name steering in
  let label = Printf.sprintf "traffic/%s/%s/%s" mname (knob_name cfg) sname in
  let params = Runner.cell_params params label in
  let solo_r, _ =
    run_phase
      ~params:(Runner.Params.with_cell (label ^ "/solo") params)
      ~cfg ~steering ()
  in
  (* The monitor watches the co-run the way it would be deployed: the
     victim's profile is the *stationary twin's* lab characterization (the
     paper's offline methodology), and the SYN_MAX co-runners are exactly
     as characterized. Nothing in the mix is an aggressor, so every
     hidden-aggressor alert is a false positive charged to the gap between
     lab traffic and production traffic. *)
  (* Tightened aggressor margin: the default 0.5 was chosen for flows whose
     lab profile matches their production behaviour; a production monitor
     is tuned tighter to catch modest aggressors. 0.25 is the operating
     point where a stationary victim never trips (its refs sit within a
     few percent of profile, see the classifier cells) but a heavy-tailed
     or bursty one can — which is exactly the false-positive exposure this
     experiment quantifies. *)
  let det_config =
    {
      (Detector.default_config
         ~sample_cycles:(Runner.Params.sample_cycles params))
      with
      Detector.aggressor_margin = 0.25;
    }
  in
  let profiles =
    Detector.profile ~label:"victim" ~core:0
      ~predict_drop:(fun ~refs_per_sec ->
        Ppp_util.Series.eval curve refs_per_sec)
      twin_solo
    :: List.init (Sensitivity.default_competitors params.Runner.config)
         (fun i -> Detector.profile ~label:"SYN" ~core:(1 + i) syn_solo)
  in
  let params = Runner.Params.with_cell (label ^ "/corun") params in
  let results, (victim, fp, st), det =
    Ppp_monitor.Report.monitored_run ~params ~config:det_config ~budgets:[]
      profiles
      (victim_mix ~params ~cfg ~steering ~competitor:Ppp_apps.App.syn_max ())
  in
  let corun_r = List.hd results in
  let measured_drop = Runner.drop ~solo:solo_r ~corun:corun_r in
  let predicted_drop =
    Ppp_util.Series.eval curve
      (Runner.competing_refs_per_sec results ~target:corun_r)
  in
  let table = Ppp_classify.Fastpath.table fp in
  {
    model = mname;
    knob = knob_name cfg;
    steering = sname;
    solo_pps = solo_r.Ppp_hw.Engine.throughput_pps;
    measured_drop;
    predicted_drop;
    abs_err = Float.abs (measured_drop -. predicted_drop);
    false_alerts = Detector.count det "hidden_aggressor";
    reorders = Ppp_click.Flow.reorders victim;
    migrations = Ppp_traffic.Steering.migrations st;
    evictions = Ppp_classify.Flow_table.evictions table;
    packets = corun_r.Ppp_hw.Engine.packets;
    lat_p99_inorder =
      Ppp_util.Histogram.percentile
        corun_r.Ppp_hw.Engine.latency_inorder 99.0;
    lat_p99_reordered =
      Ppp_util.Histogram.percentile
        corun_r.Ppp_hw.Engine.latency_reordered 99.0;
  }

let measure ?(params = Runner.Params.default) () =
  let twin_solo, curve = stationary_curve ~params in
  let syn_solo = Runner.solo ~params Ppp_apps.App.syn_max in
  let cells =
    List.concat_map
      (fun cfg -> List.map (fun steering -> (cfg, steering)) steerings)
      models
  in
  {
    twin_solo_pps = twin_solo.Ppp_hw.Engine.throughput_pps;
    curve_points = Array.to_list (Ppp_util.Series.points curve);
    cells =
      Parallel.map
        (fun (cfg, steering) ->
          run_cell ~params ~curve ~twin_solo ~syn_solo ~cfg ~steering)
        cells;
  }

let columns =
  Output.
    [
      col "model" "model" str (fun c -> c.model);
      col "knob" "knob" str (fun c -> c.knob);
      col "steering" "steering" str (fun c -> c.steering);
      col "solo_pps" "solo pps" f0 (fun c -> c.solo_pps);
      col "measured_drop" "drop (%)" pct (fun c -> c.measured_drop);
      col "predicted_drop" "pred (%)" pct (fun c -> c.predicted_drop);
      col "abs_err" "|err| (pp)"
        (num (fun e -> Printf.sprintf "%.1f" (100.0 *. e)))
        (fun c -> c.abs_err);
      col "false_alerts" "false alerts" int (fun c -> c.false_alerts);
      col "reorders" "reorders" int (fun c -> c.reorders);
      col "migrations" "migr" int (fun c -> c.migrations);
      col "evictions" "evict" int (fun c -> c.evictions);
      json_col "packets" int (fun c -> c.packets);
      col "lat_p99_inorder" "p99 in-ord" int (fun c -> c.lat_p99_inorder);
      (* No reordered packet in the window (every RSS cell): "-" in text. *)
      json_col "lat_p99_reordered" int (fun c -> c.lat_p99_reordered);
      text_col "p99 reord" (fun c ->
          if c.lat_p99_reordered = 0 then "-"
          else string_of_int c.lat_p99_reordered);
    ]

let render d =
  let by_steering s = List.filter (fun c -> c.steering = s) d.cells in
  let sum f cs = List.fold_left (fun a c -> a + f c) 0 cs in
  let mean_err cs =
    match cs with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a c -> a +. c.abs_err) 0.0 cs
        /. float_of_int (List.length cs)
  in
  let rss = by_steering "rss" and fdir = by_steering "fdir" in
  Output.text_table
    ~title:
      "Traffic realism: stationary-calibrated prediction and monitoring \
       under production source models"
    columns d.cells
  ^ Printf.sprintf
      "\nstationary twin solo %.0f pps; curve sampled at %d SYN levels\n"
      d.twin_solo_pps
      (List.length d.curve_points - 1)
  ^ Printf.sprintf
      "steering: Flow-Director cells observed %d reorders across %d \
       migrations (one inversion per migration); RSS cells observed %d \
       (hash steering never reorders a flow)\n"
      (sum (fun c -> c.reorders) fdir)
      (sum (fun c -> c.migrations) fdir)
      (sum (fun c -> c.reorders) rss)
  ^ Printf.sprintf
      "prediction: mean |error| %.1f pp against the stationary curve; \
       monitor raised %d false aggressor alerts with no aggressor in the \
       mix\n"
      (100.0 *. mean_err d.cells)
      (sum (fun c -> c.false_alerts) d.cells)

let data_json d =
  let open Output in
  Json.Obj
    [
      ("twin_solo_pps", Json.Float d.twin_solo_pps);
      ( "curve",
        Json.Arr
          (List.map
             (fun (x, y) -> Json.Arr [ Json.Float x; Json.Float y ])
             d.curve_points) );
      ("cells", table columns d.cells);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
