open Ppp_core

type data = {
  victim_solo_pps : float;
  victim_with_tame_pps : float;
  victim_with_loud_pps : float;
  victim_with_throttled_pps : float;
  victim_tame_drop : float;
  victim_loud_drop : float;
  victim_throttled_drop : float;
  attacker_refs_budget : float;
  attacker_loud_refs : float;
  attacker_throttled_refs : float;
}

(* The paper's five attackers, clamped so the scenario also fits the tiny
   machine (victim on core 0, attackers on the rest). *)
let n_attackers ~config =
  min 5 (Ppp_hw.Topology.cores config.Ppp_hw.Machine.topology - 1)

let run_scenario ~params ~cell ~switch_after ~throttle_budget =
  let config = params.Runner.config in
  let scale = config.Ppp_hw.Machine.scale in
  let freq_hz = config.Ppp_hw.Machine.costs.Ppp_hw.Costs.freq_hz in
  fst
    (Runner.run_with
       ~params:(Runner.Params.with_cell ("throttle/" ^ cell) params)
       (fun hier ~heaps ~rng ->
         let heap = heaps.(0) in
         let victim =
           Ppp_apps.App.flow Ppp_apps.App.MON ~heap
             ~rng:(Ppp_util.Rng.split rng) ~scale ~label:"MON" ()
         in
         let attackers =
           List.init (n_attackers ~config) (fun i ->
               let flow =
                 Throttle.Two_faced.flow ~heap ~rng:(Ppp_util.Rng.split rng)
                   ~scale ~switch_after
               in
               (* Each attacker draws one more split, unused, so the next
                  attacker's elements keep the stream the goldens pin. *)
               let (_ : Ppp_util.Rng.t) = Ppp_util.Rng.split rng in
               let source = Ppp_click.Flow.source flow in
               let source =
                 match throttle_budget with
                 | None -> source
                 | Some budget ->
                     (* Meter the quantity the paper's prediction uses: L3
                        refs/sec read from the core's hardware counters. *)
                     Throttle.l3_budget_source ~budget_l3_refs_per_sec:budget
                       ~hier ~core:(1 + i) ~freq_hz source
               in
               { Ppp_hw.Engine.core = 1 + i; label = "two-faced"; source })
         in
         ( { Ppp_hw.Engine.core = 0; label = "MON";
             source = Ppp_click.Flow.source victim }
           :: attackers,
           () )))

let measure ?(params = Runner.Params.default) () =
  let never = max_int in
  let solo = Runner.solo ~params Ppp_apps.App.MON in
  let tame =
    run_scenario ~params ~cell:"tame" ~switch_after:never ~throttle_budget:None
  in
  let loud =
    run_scenario ~params ~cell:"loud" ~switch_after:0 ~throttle_budget:None
  in
  let victim_tame = List.hd tame and victim_loud = List.hd loud in
  (* The profiled budget: the tame attackers' observed reference rate. *)
  let budget =
    match tame with
    | _ :: (a : Ppp_hw.Engine.result) :: _ ->
        a.Ppp_hw.Engine.l3_refs_per_sec *. 1.05
    | _ -> assert false
  in
  let throttled =
    run_scenario ~params ~cell:"throttled" ~switch_after:0
      ~throttle_budget:(Some budget)
  in
  let victim_throttled = List.hd throttled in
  let attacker_rate results =
    match results with
    | _ :: (a : Ppp_hw.Engine.result) :: _ -> a.Ppp_hw.Engine.l3_refs_per_sec
    | _ -> 0.0
  in
  {
    victim_solo_pps = solo.Ppp_hw.Engine.throughput_pps;
    victim_with_tame_pps = victim_tame.Ppp_hw.Engine.throughput_pps;
    victim_with_loud_pps = victim_loud.Ppp_hw.Engine.throughput_pps;
    victim_with_throttled_pps = victim_throttled.Ppp_hw.Engine.throughput_pps;
    victim_tame_drop = Runner.drop ~solo ~corun:victim_tame;
    victim_loud_drop = Runner.drop ~solo ~corun:victim_loud;
    victim_throttled_drop = Runner.drop ~solo ~corun:victim_throttled;
    attacker_refs_budget = budget;
    attacker_loud_refs = attacker_rate loud;
    attacker_throttled_refs = attacker_rate throttled;
  }

let render d =
  let open Output in
  text_table
    ~title:
      "Section 4: containing hidden aggressiveness (victim = MON, 5 \
       two-faced co-runners)"
    [
      text_col "scenario" (fun (s, _, _, _) -> s);
      text_col "victim pps" (fun (_, pps, _, _) -> show f0 pps);
      text_col "victim drop (%)" (fun (_, _, drop, _) -> show pct drop);
      text_col "attacker refs/s (M)" (fun (_, _, _, refs) ->
          Option.fold ~none:"-" ~some:(show millions) refs);
    ]
    [
      ("victim solo", d.victim_solo_pps, 0.0, None);
      ( "attackers as profiled (tame)",
        d.victim_with_tame_pps,
        d.victim_tame_drop,
        Some (d.attacker_refs_budget /. 1.05) );
      ( "attackers switch to SYN_MAX",
        d.victim_with_loud_pps,
        d.victim_loud_drop,
        Some d.attacker_loud_refs );
      ( "switched but throttled to profile",
        d.victim_with_throttled_pps,
        d.victim_throttled_drop,
        Some d.attacker_throttled_refs );
    ]
  ^ Printf.sprintf
      "\nthrottle budget %.1fM refs/s; throttled attackers stayed at %.1fM \
       refs/s (within budget: %b)\n"
      (d.attacker_refs_budget /. 1e6)
      (d.attacker_throttled_refs /. 1e6)
      (d.attacker_throttled_refs <= d.attacker_refs_budget *. 1.02)

let data_json d =
  let open Output in
  Json.Obj
    [
      ("victim_solo_pps", Json.Float d.victim_solo_pps);
      ("victim_with_tame_pps", Json.Float d.victim_with_tame_pps);
      ("victim_with_loud_pps", Json.Float d.victim_with_loud_pps);
      ("victim_with_throttled_pps", Json.Float d.victim_with_throttled_pps);
      ("attacker_refs_budget", Json.Float d.attacker_refs_budget);
      ("attacker_loud_refs", Json.Float d.attacker_loud_refs);
      ("attacker_throttled_refs", Json.Float d.attacker_throttled_refs);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
