open Ppp_core
module Detector = Ppp_monitor.Detector
module Report = Ppp_monitor.Report

(* A short SYN ramp: the monitor only needs the victim's curve for online
   prediction, not a publication-quality Figure 4. *)
let default_levels =
  List.map
    (fun (reads, instrs) -> { Ppp_apps.App.reads; instrs })
    [ (2, 80_000); (16, 6_000); (32, 1_200); (64, 400); (256, 0) ]

type phase = {
  cell : string;
  victim_pps : float;
  aggressor_l3_refs_per_sec : float;
  n_degraded : int;
  n_aggressor : int;
  n_recovered : int;
  first_aggressor_epoch : int option;
  verdicts : (string * string) list;
  alerts : Output.Json.t;
}

type data = {
  victim_solo_pps : float;
  aggressor_profiled_refs : float;
  sample_cycles : int;
  switch_after : int;
  budget : float option;  (** the detector's first recommendation, once made *)
  tame : phase;
  loud : phase;
  throttled : phase;
}

(* Monitored mix: victim on 0, two-faced aggressor on 1 (same socket on
   every config, so they share the L3), and up to two profiled-tame flows
   behind them. *)
let tame_kinds ~config =
  let cores = Ppp_hw.Topology.cores config.Ppp_hw.Machine.topology in
  List.filteri
    (fun i _ -> 2 + i < cores)
    [ Ppp_apps.App.IP; Ppp_apps.App.FW ]

(* The aggressor's offline profile is its tame face: what a solo
   characterization run would have recorded before deployment. *)
let aggressor_solo ~params =
  let params = Runner.cell_params params "monitor/solo-two-faced" in
  match
    Runner.run_with ~params (fun _ ~heaps ~rng ->
        let flow =
          Throttle.Two_faced.flow ~heap:heaps.(0)
            ~rng:(Ppp_util.Rng.split rng)
            ~scale:params.Runner.config.Ppp_hw.Machine.scale
            ~switch_after:max_int
        in
        ( [ { Ppp_hw.Engine.core = 0; label = "two-faced";
              source = Ppp_click.Flow.source flow } ],
          () ))
  with
  | [ r ], () -> r
  | _ -> assert false

let run_phase ~params ~cell ~profiles ~config:det_config ~switch_after
    ~budgets =
  let params = Runner.cell_params params cell in
  let config = params.Runner.config in
  let scale = config.Ppp_hw.Machine.scale in
  let results, (), det =
    Report.monitored_run ~params ~config:det_config ~budgets profiles
      (fun _ ~heaps ~rng ->
        let heap = heaps.(0) in
        let victim =
          Ppp_apps.App.flow Ppp_apps.App.MON ~heap
            ~rng:(Ppp_util.Rng.split rng) ~scale ~label:"MON" ()
        in
        let aggressor =
          Throttle.Two_faced.flow ~heap ~rng:(Ppp_util.Rng.split rng) ~scale
            ~switch_after
        in
        let tame =
          List.mapi
            (fun i kind ->
              let label = Ppp_apps.App.name kind in
              let flow =
                Ppp_apps.App.flow kind ~heap ~rng:(Ppp_util.Rng.split rng)
                  ~scale ~label ()
              in
              { Ppp_hw.Engine.core = 2 + i; label;
                source = Ppp_click.Flow.source flow })
            (tame_kinds ~config)
        in
        ( { Ppp_hw.Engine.core = 0; label = "MON";
            source = Ppp_click.Flow.source victim }
          :: { Ppp_hw.Engine.core = 1; label = "two-faced";
               source = Ppp_click.Flow.source aggressor }
          :: tame,
          () ))
  in
  let victim_r = List.hd results in
  let aggressor_r = List.nth results 1 in
  let first_aggressor_epoch =
    List.fold_left
      (fun acc (e : Detector.event) ->
        match (acc, e.Detector.e_kind) with
        | None, Detector.Hidden_aggressor _ -> Some e.Detector.e_epoch
        | _ -> acc)
      None (Detector.events det)
  in
  ( det,
    {
      cell;
      victim_pps = victim_r.Ppp_hw.Engine.throughput_pps;
      aggressor_l3_refs_per_sec = aggressor_r.Ppp_hw.Engine.l3_refs_per_sec;
      n_degraded = Detector.count det "flow_degraded";
      n_aggressor = Detector.count det "hidden_aggressor";
      n_recovered = Detector.count det "recovered";
      first_aggressor_epoch;
      verdicts =
        List.map
          (fun ((p : Detector.flow_profile), v) -> (p.Detector.label, v))
          (Report.verdicts det);
      alerts = Report.alerts_json det;
    } )

let measure ?(params = Runner.Params.default) () =
  let config = params.Runner.config in
  let freq_hz = config.Ppp_hw.Machine.costs.Ppp_hw.Costs.freq_hz in
  let predictor =
    Predictor.build ~params ~levels:default_levels
      ~targets:[ Ppp_apps.App.MON ] ()
  in
  let victim_solo = Predictor.solo predictor Ppp_apps.App.MON in
  let aggr_solo = aggressor_solo ~params in
  let profiles =
    Detector.profile ~label:"MON" ~core:0
      ~predict_drop:
        (Predictor.predict_drop_at predictor ~target:Ppp_apps.App.MON)
      victim_solo
    :: Detector.profile ~label:"two-faced" ~core:1 aggr_solo
    :: List.mapi
         (fun i kind ->
           Detector.profile ~label:(Ppp_apps.App.name kind) ~core:(2 + i)
             (Runner.solo ~params kind))
         (tame_kinds ~config)
  in
  let det_config =
    Detector.default_config ~sample_cycles:(Runner.Params.sample_cycles params)
  in
  (* Switch mid-window: the tame-face packet rate tells us how many packets
     the aggressor completes by the middle of the measurement window. *)
  let switch_after =
    int_of_float
      (aggr_solo.Ppp_hw.Engine.throughput_pps
      *. (float_of_int params.Runner.warmup_cycles
         +. (float_of_int params.Runner.measure_cycles /. 2.0))
      /. freq_hz)
  in
  let run_phase = run_phase ~params ~profiles ~config:det_config in
  let _, tame =
    run_phase ~cell:"monitor/tame" ~switch_after:max_int ~budgets:[]
  in
  let loud_det, loud =
    run_phase ~cell:"monitor/loud" ~switch_after ~budgets:[]
  in
  (* Closed loop: the budgets are the detector's own recommendations, not an
     oracle's — what a controller reacting to the alerts would apply. Without
     one, the aggressor is held to its profiled rate plus the detector's
     default headroom. *)
  let budgets = Detector.budgets loud_det in
  let _, throttled =
    run_phase ~cell:"monitor/throttled" ~switch_after
      ~budgets:
        (if budgets = [] then
           [ (1, aggr_solo.Ppp_hw.Engine.l3_refs_per_sec *. 1.05) ]
         else budgets)
  in
  {
    victim_solo_pps = victim_solo.Ppp_hw.Engine.throughput_pps;
    aggressor_profiled_refs = aggr_solo.Ppp_hw.Engine.l3_refs_per_sec;
    sample_cycles = det_config.Detector.sample_cycles;
    switch_after;
    budget = Option.map snd (List.nth_opt budgets 0);
    tame;
    loud;
    throttled;
  }

let render d =
  let open Output in
  text_table
    ~title:
      "Online contention monitor (victim = MON, two-faced aggressor, tame \
       mix)"
    [
      text_col "scenario" fst;
      text_col "victim pps" (fun (_, p) -> show f0 p.victim_pps);
      text_col "drop (%)" (fun (_, p) ->
          show pct
            ((d.victim_solo_pps -. p.victim_pps) /. d.victim_solo_pps));
      text_col "aggr refs/s (M)" (fun (_, p) ->
          show millions p.aggressor_l3_refs_per_sec);
      text_col "degr" (fun (_, p) -> string_of_int p.n_degraded);
      text_col "aggr" (fun (_, p) -> string_of_int p.n_aggressor);
      text_col "recov" (fun (_, p) -> string_of_int p.n_recovered);
      text_col "verdicts" (fun (_, p) ->
          String.concat " "
            (List.map (fun (flow, v) -> flow ^ "=" ^ v) p.verdicts));
    ]
    [
      ("tame mix (as profiled)", d.tame);
      ("aggressor switches mid-run", d.loud);
      ("closed loop: throttled to alert budget", d.throttled);
    ]
  ^ Printf.sprintf
      "\naggressor profiled at %.1fM L3 refs/s; switches after %d packets\n"
      (d.aggressor_profiled_refs /. 1e6)
      d.switch_after
  ^ (match (d.loud.first_aggressor_epoch, d.budget) with
    | Some epoch, Some budget ->
        Printf.sprintf
          "hidden aggressor flagged at epoch %d (slice length %d cycles); \
           recommended budget %.1fM refs/s\n"
          epoch d.sample_cycles (budget /. 1e6)
    | _ -> "hidden aggressor was NOT flagged\n")
  ^ Printf.sprintf
      "after throttling: aggressor at %.1fM refs/s, victim back to %.2f of \
       solo\n"
      (d.throttled.aggressor_l3_refs_per_sec /. 1e6)
      (d.throttled.victim_pps /. d.victim_solo_pps)

let phase_json p =
  let open Output in
  Json.Obj
    [
      ("cell", Json.Str p.cell);
      ("victim_pps", Json.Float p.victim_pps);
      ("aggressor_l3_refs_per_sec", Json.Float p.aggressor_l3_refs_per_sec);
      ("flow_degraded", Json.Int p.n_degraded);
      ("hidden_aggressor", Json.Int p.n_aggressor);
      ("recovered", Json.Int p.n_recovered);
      ( "first_aggressor_epoch",
        match p.first_aggressor_epoch with
        | Some e -> Json.Int e
        | None -> Json.Null );
      ( "verdicts",
        Json.Obj (List.map (fun (flow, v) -> (flow, Json.Str v)) p.verdicts) );
      ("alerts", p.alerts);
    ]

let data_json d =
  let open Output in
  Json.Obj
    [
      ("victim_solo_pps", Json.Float d.victim_solo_pps);
      ("aggressor_profiled_refs", Json.Float d.aggressor_profiled_refs);
      ("sample_cycles", Json.Int d.sample_cycles);
      ("switch_after", Json.Int d.switch_after);
      ( "budget",
        match d.budget with Some b -> Json.Float b | None -> Json.Null );
      ("tame", phase_json d.tame);
      ("loud", phase_json d.loud);
      ("throttled", phase_json d.throttled);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
