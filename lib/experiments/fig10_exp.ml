open Ppp_core

type combo_result = {
  combo : Scheduler.combo;
  best : Scheduler.evaluation;
  worst : Scheduler.evaluation;
}

type data = { combos : combo_result list; detail : combo_result }

(* Spread 2*cores_per_socket flows across the combo's kinds (the paper's
   machine gives the familiar 6+6 and 4+4+4 splits; tiny gives 2+2). *)
let combo_of ~cps kinds =
  let total = 2 * cps in
  let k = List.length kinds in
  let base = total / k and rem = total mod k in
  List.mapi (fun i kind -> (kind, base + if i < rem then 1 else 0)) kinds

let default_combos ~config =
  let cps = Ppp_hw.Machine.cores_per_socket config in
  List.map
    (combo_of ~cps)
    Ppp_apps.App.
      [
        [ MON; FW ];
        [ IP; FW ];
        [ MON; VPN ];
        [ IP; MON ];
        [ RE; FW ];
        [ MON; RE; FW ];
        [ MON ];
        [ syn_max; FW ];
      ]

let measure ?(params = Runner.Params.default) ?combos () =
  let config = params.Runner.config in
  let combos =
    match combos with Some c -> c | None -> default_combos ~config
  in
  (* Solo baselines for every kind up front, so the per-combo cells below
     share no mutable cache. *)
  let solos =
    combos
    |> List.concat_map (List.map fst)
    |> List.sort_uniq compare
    |> Parallel.map (fun k -> (k, Runner.solo ~params k))
  in
  let eval combo =
    let evals = Scheduler.evaluate ~params ~solo:solos combo in
    { combo; best = Scheduler.best evals; worst = Scheduler.worst evals }
  in
  let combos = Parallel.map eval combos in
  let detail =
    let cps = Ppp_hw.Machine.cores_per_socket config in
    let mon_fw = combo_of ~cps Ppp_apps.App.[ MON; FW ] in
    match List.find_opt (fun c -> c.combo = mon_fw) combos with
    | Some c -> c
    | None -> List.hd combos
  in
  { combos; detail }

let is_realistic combo =
  List.for_all
    (fun (k, _) -> match k with Ppp_apps.App.SYN _ -> false | _ -> true)
    combo

let max_gain data =
  List.fold_left
    (fun acc c ->
      if is_realistic c.combo then
        Float.max acc (c.worst.Scheduler.avg_drop -. c.best.Scheduler.avg_drop)
      else acc)
    0.0 data.combos

let render data =
  let combos =
    Output.
      [
        text_col "combination" (fun c -> Scheduler.combo_name c.combo);
        text_col "best placement" (fun c -> show pct c.best.Scheduler.avg_drop);
        text_col "worst placement" (fun c ->
            show pct c.worst.Scheduler.avg_drop);
        text_col "gain (pp)" (fun c ->
            show pct (c.worst.Scheduler.avg_drop -. c.best.Scheduler.avg_drop));
      ]
  in
  let summarize (e : Scheduler.evaluation) =
    (* Average drop per kind across the placement's flows. *)
    let kinds = List.sort_uniq compare (List.map fst e.Scheduler.per_flow) in
    List.map
      (fun k ->
        let ds = List.filter_map (fun (k', d) -> if k = k' then Some d else None) e.Scheduler.per_flow in
        (k, List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)))
      kinds
  in
  let worst = summarize data.detail.worst in
  let detail =
    Output.
      [
        text_col "flow" (fun (k, _) -> Ppp_apps.App.name k);
        text_col "best placement" (fun (_, d) -> show pct d);
        text_col "worst placement" (fun (k, _) ->
            show pct (List.assoc k worst));
      ]
  in
  Output.text_table
    ~title:
      "Figure 10(a): average per-flow drop (%) under best and worst \
       placement"
    combos data.combos
  ^ "\n"
  ^ Output.text_table
      ~title:
        (Printf.sprintf
           "Figure 10(b): per-flow drop (%%) for %s under best/worst placement"
           (Scheduler.combo_name data.detail.combo))
      detail
      (summarize data.detail.best)
  ^ Printf.sprintf
      "\nmax overall gain from contention-aware scheduling (realistic \
       combos) = %s%%\n"
      (Output.show Output.pct (max_gain data))

let data_json data =
  let open Output in
  let eval_json (e : Scheduler.evaluation) =
    Json.Obj
      [
        ("avg_drop", Json.Float e.Scheduler.avg_drop);
        ( "per_flow",
          table
            [ json_col "flow" kind fst; json_col "drop" pct snd ]
            e.Scheduler.per_flow );
      ]
  in
  let combo_json c =
    Json.Obj
      [
        ("combination", Json.Str (Scheduler.combo_name c.combo));
        ("best", eval_json c.best);
        ("worst", eval_json c.worst);
      ]
  in
  Json.Obj
    [
      ("combos", Json.Arr (List.map combo_json data.combos));
      ("detail", combo_json data.detail);
      ("max_gain_realistic", Json.Float (max_gain data));
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
