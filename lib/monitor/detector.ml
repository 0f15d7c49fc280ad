type flow_profile = {
  label : string;
  core : int;
  solo_pps : float;
  solo_l3_refs_per_sec : float;
  predict_drop : (refs_per_sec:float -> float) option;
}

let profile ?predict_drop ~label ~core (solo : Ppp_hw.Engine.result) =
  {
    label;
    core;
    solo_pps = solo.Ppp_hw.Engine.throughput_pps;
    solo_l3_refs_per_sec = solo.Ppp_hw.Engine.l3_refs_per_sec;
    predict_drop;
  }

type config = {
  sample_cycles : int;
  hysteresis : int;
  aggressor_margin : float;
  drop_margin : float;
  ewma_alpha : float;
  budget_headroom : float;
}

let default_config ~sample_cycles =
  {
    sample_cycles;
    hysteresis = 3;
    aggressor_margin = 0.5;
    drop_margin = 0.1;
    ewma_alpha = 0.5;
    budget_headroom = 0.05;
  }

type event_kind =
  | Flow_degraded of { measured_drop : float; predicted_drop : float }
  | Hidden_aggressor of {
      measured_refs_per_sec : float;
      profiled_refs_per_sec : float;
    }
  | Recovered of { condition : string }

let kind_name = function
  | Flow_degraded _ -> "flow_degraded"
  | Hidden_aggressor _ -> "hidden_aggressor"
  | Recovered _ -> "recovered"

type event = {
  e_epoch : int;
  e_t_cycles : int;
  e_flow : string;
  e_core : int;
  e_kind : event_kind;
}

type recommendation = {
  r_flow : string;
  r_core : int;
  r_t_cycles : int;
  r_budget_l3_refs_per_sec : float;
}

type row = {
  row_epoch : int;
  row_flow : string;
  row_core : int;
  row_rates : Estimator.rates;
  row_competing_refs_per_sec : float;
  row_measured_drop : float;
  row_predicted_drop : float;
  row_degraded : bool;
  row_aggressor : bool;
}

(* One two-state hysteresis machine: [streak] consecutive epochs with the
   condition true arm it; once alerted, [clear] consecutive epochs with the
   condition false release it. *)
type alarm = { mutable streak : int; mutable clear : int; mutable alerted : bool }

let new_alarm () = { streak = 0; clear = 0; alerted = false }

(* Returns [`Fire] on the epoch the alarm arms, [`Release] on the epoch it
   releases, [`Quiet] otherwise. *)
let step alarm ~hysteresis cond =
  if cond then begin
    alarm.clear <- 0;
    alarm.streak <- alarm.streak + 1;
    if (not alarm.alerted) && alarm.streak >= hysteresis then begin
      alarm.alerted <- true;
      `Fire
    end
    else `Quiet
  end
  else begin
    alarm.streak <- 0;
    if alarm.alerted then begin
      alarm.clear <- alarm.clear + 1;
      if alarm.clear >= hysteresis then begin
        alarm.alerted <- false;
        alarm.clear <- 0;
        `Release
      end
      else `Quiet
    end
    else `Quiet
  end

type flow_state = {
  profile : flow_profile;
  estimator : Estimator.t;
  pending : Estimator.rates Queue.t;
  degraded : alarm;
  aggressor : alarm;
  mutable last : Estimator.rates option;
}

type t = {
  config : config;
  flows : flow_state array;  (* in profile-list order; cores are distinct *)
  mutable epochs : int;
  mutable acc_rows : row list;  (* reversed *)
  mutable acc_events : event list;  (* reversed *)
  mutable acc_recs : recommendation list;  (* reversed *)
}

let create ~config ~freq_hz profiles =
  if profiles = [] then invalid_arg "Detector.create: no flows";
  if config.sample_cycles < 1 then
    invalid_arg "Detector.create: sample_cycles must be >= 1";
  if config.hysteresis < 1 then
    invalid_arg "Detector.create: hysteresis must be >= 1";
  let cores = List.map (fun p -> p.core) profiles in
  if List.length (List.sort_uniq compare cores) <> List.length cores then
    invalid_arg "Detector.create: duplicate core in profiles";
  {
    config;
    flows =
      Array.of_list
        (List.map
           (fun profile ->
             {
               profile;
               estimator =
                 Estimator.create ~alpha:config.ewma_alpha ~freq_hz;
               pending = Queue.create ();
               degraded = new_alarm ();
               aggressor = new_alarm ();
               last = None;
             })
           profiles);
  epochs = 0;
  acc_rows = [];
  acc_events = [];
  acc_recs = [];
  }

let emit t e = t.acc_events <- e :: t.acc_events

(* Evaluate one epoch: [snapshot.(i)] is flow i's rates for this epoch, or
   its last-known rates when the flow's stream ended early (final ragged
   epochs only). Flows with a live slice get a timeline row and alarm
   updates; stale flows only contribute to the competing-rate sums. *)
let eval_epoch t snapshot live =
  let epoch = t.epochs in
  t.epochs <- epoch + 1;
  let c = t.config in
  Array.iteri
    (fun i st ->
      if live.(i) then begin
        let rates : Estimator.rates = snapshot.(i) in
        let competing = ref 0.0 in
        Array.iteri
          (fun j _ ->
            if j <> i then
              competing :=
                !competing +. (snapshot.(j) : Estimator.rates).ewma_l3_refs_per_sec)
          t.flows;
        let competing = !competing in
        let p = st.profile in
        let measured_drop =
          if p.solo_pps > 0.0 then 1.0 -. (rates.ewma_pps /. p.solo_pps)
          else 0.0
        in
        let predicted_drop =
          match p.predict_drop with
          | Some f -> f ~refs_per_sec:competing
          | None -> 0.0
        in
        (* A flow is degraded when it loses more than the model says it
           should at the competitors' *measured* rate: a prediction
           violation, not mere contention. Flows without a curve are not
           judged (no prediction to violate). *)
        let degraded_now =
          p.predict_drop <> None
          && measured_drop > predicted_drop +. c.drop_margin
        in
        let aggressor_now =
          rates.ewma_l3_refs_per_sec
          > p.solo_l3_refs_per_sec *. (1.0 +. c.aggressor_margin)
        in
        t.acc_rows <-
          {
            row_epoch = epoch;
            row_flow = p.label;
            row_core = p.core;
            row_rates = rates;
            row_competing_refs_per_sec = competing;
            row_measured_drop = measured_drop;
            row_predicted_drop = predicted_drop;
            row_degraded = degraded_now;
            row_aggressor = aggressor_now;
          }
          :: t.acc_rows;
        let ev kind =
          {
            e_epoch = epoch;
            e_t_cycles = rates.Estimator.t_end;
            e_flow = p.label;
            e_core = p.core;
            e_kind = kind;
          }
        in
        (match step st.degraded ~hysteresis:c.hysteresis degraded_now with
        | `Fire -> emit t (ev (Flow_degraded { measured_drop; predicted_drop }))
        | `Release -> emit t (ev (Recovered { condition = "flow_degraded" }))
        | `Quiet -> ());
        match step st.aggressor ~hysteresis:c.hysteresis aggressor_now with
        | `Fire ->
            emit t
              (ev
                 (Hidden_aggressor
                    {
                      measured_refs_per_sec = rates.ewma_l3_refs_per_sec;
                      profiled_refs_per_sec = p.solo_l3_refs_per_sec;
                    }));
            t.acc_recs <-
              {
                r_flow = p.label;
                r_core = p.core;
                r_t_cycles = rates.Estimator.t_end;
                r_budget_l3_refs_per_sec =
                  p.solo_l3_refs_per_sec *. (1.0 +. c.budget_headroom);
              }
              :: t.acc_recs
        | `Release -> emit t (ev (Recovered { condition = "hidden_aggressor" }))
        | `Quiet -> ()
      end)
    t.flows

(* Pop one epoch off every queue and evaluate, as long as all flows have one
   queued: epochs align the i-th slice of every flow, which the engine's
   shared boundary grid makes (near-)simultaneous in simulated time. *)
let drain_complete t =
  while Array.for_all (fun st -> not (Queue.is_empty st.pending)) t.flows do
    let snapshot =
      Array.map
        (fun st ->
          let r = Queue.pop st.pending in
          st.last <- Some r;
          r)
        t.flows
    in
    eval_epoch t snapshot (Array.map (fun _ -> true) t.flows)
  done

let feed t (s : Ppp_hw.Engine.sample) =
  match
    Array.find_opt
      (fun st -> st.profile.core = s.Ppp_hw.Engine.s_core)
      t.flows
  with
  | None -> ()
  | Some st ->
      Queue.push (Estimator.push st.estimator s) st.pending;
      drain_complete t

let finalize t =
  (* Ragged tails: if some flows produced a final extra slice, evaluate the
     remaining epochs with the finished flows frozen at their last rates. *)
  let any_pending () =
    Array.exists (fun st -> not (Queue.is_empty st.pending)) t.flows
  in
  while any_pending () do
    let live = Array.map (fun st -> not (Queue.is_empty st.pending)) t.flows in
    let snapshot =
      Array.map
        (fun st ->
          match Queue.take_opt st.pending with
          | Some r ->
              st.last <- Some r;
              r
          | None -> (
              match st.last with
              | Some r -> r
              | None ->
                  (* A flow that never produced a slice contributes nothing. *)
                  {
                    Estimator.t_start = 0;
                    t_end = 0;
                    packets = 0;
                    pps = 0.0;
                    l3_refs_per_sec = 0.0;
                    l3_hits_per_sec = 0.0;
                    mem_refs_per_sec = 0.0;
                    p50_latency = 0;
                    p99_latency = 0;
                    ewma_pps = 0.0;
                    ewma_l3_refs_per_sec = 0.0;
                  }))
        t.flows
    in
    eval_epoch t snapshot live
  done

let probe t =
  { Ppp_hw.Engine.sample_cycles = t.config.sample_cycles; on_sample = feed t }

let config t = t.config
let profiles t = Array.to_list (Array.map (fun st -> st.profile) t.flows)
let epochs t = t.epochs
let rows t = List.rev t.acc_rows
let events t = List.rev t.acc_events
let recommendations t = List.rev t.acc_recs

let budgets t =
  List.rev
    (List.fold_left
       (fun acc r ->
         if List.mem_assoc r.r_core acc then acc
         else (r.r_core, r.r_budget_l3_refs_per_sec) :: acc)
       [] (recommendations t))

let count t kind =
  List.length
    (List.filter (fun e -> kind_name e.e_kind = kind) (events t))

let alerted t ~core =
  match Array.find_opt (fun st -> st.profile.core = core) t.flows with
  | None -> (false, false)
  | Some st -> (st.degraded.alerted, st.aggressor.alerted)
