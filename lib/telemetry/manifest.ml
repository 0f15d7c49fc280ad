type run = {
  tool : string;
  machine : string;
  seed : int;
  warmup_cycles : int;
  measure_cycles : int;
  jobs_configured : int;
  jobs_effective : int;
  sample_cycles : int option;
}

let schema = "ppp-telemetry/6"
let schema_version = 6

(* The alerts section summarizes monitor events. It is always present —
   an empty section (0 events) is the valid shape for non-monitor runs —
   so consumers never have to probe for the key. *)
let alerts_json events =
  let by_name =
    List.sort_uniq compare (List.map (fun (e : Event.t) -> e.Event.name) events)
    |> List.map (fun name ->
           ( name,
             Json.Int
               (List.length
                  (List.filter
                     (fun (e : Event.t) -> e.Event.name = name)
                     events)) ))
  in
  Json.Obj
    [
      ("events", Json.Int (List.length events));
      ("by_name", Json.Obj by_name);
    ]

(* Schema 5: the profile section summarizes per-tag attribution when a
   run was profiled (--profile). Always present like the other sections;
   an empty section (0 entries) is the valid shape for unprofiled runs. *)
let profile_json (entries : Recorder.profile_entry list) =
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 entries in
  Json.Obj
    [
      ("entries", Json.Int (List.length entries));
      ("cycles", Json.Int (sum (fun e -> e.Recorder.pr_cycles)));
      ( "instructions",
        Json.Int (sum (fun e -> e.Recorder.pr_instructions)) );
      ("l3_hits", Json.Int (sum (fun e -> e.Recorder.pr_l3_hits)));
      ("l3_misses", Json.Int (sum (fun e -> e.Recorder.pr_l3_misses)));
      ("packets", Json.Int (sum (fun e -> e.Recorder.pr_packets)));
      ( "window_cycles",
        Json.Int (Profile.window_cycles_total entries) );
      ( "by_element",
        Json.Arr
          (List.map
             (fun (t : Profile.element_total) ->
               Json.Obj
                 [
                   ("element", Json.Str t.Profile.el_name);
                   ("cycles", Json.Int t.Profile.el_cycles);
                   ("instructions", Json.Int t.Profile.el_instructions);
                   ("l3_hits", Json.Int t.Profile.el_l3_hits);
                   ("l3_misses", Json.Int t.Profile.el_l3_misses);
                   ("packets", Json.Int t.Profile.el_packets);
                   ("lat_p50", Json.Int t.Profile.el_lat_p50);
                   ("lat_p90", Json.Int t.Profile.el_lat_p90);
                   ("lat_p99", Json.Int t.Profile.el_lat_p99);
                   ("lat_p999", Json.Int t.Profile.el_lat_p999);
                 ])
             (Profile.by_element entries)) );
    ]

let json ?(events = []) ?(profile = []) ~run ~experiments ~series ~spans () =
  let n_slices =
    List.fold_left
      (fun acc (s : Timeseries.t) -> acc + List.length s.Timeseries.slices)
      0 series
  in
  let cells =
    List.sort_uniq compare
      (List.map
         (fun (s : Timeseries.t) ->
           (s.Timeseries.experiment, s.Timeseries.cell))
         series)
  in
  let wall_total =
    List.fold_left
      (fun acc (e : Recorder.experiment_entry) ->
        acc +. e.Recorder.wall_s)
      0.0 experiments
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("schema_version", Json.Int schema_version);
      ( "run",
        Json.Obj
          [
            ("tool", Json.Str run.tool);
            ("machine", Json.Str run.machine);
            ("seed", Json.Int run.seed);
            ("warmup_cycles", Json.Int run.warmup_cycles);
            ("measure_cycles", Json.Int run.measure_cycles);
            ("jobs_configured", Json.Int run.jobs_configured);
            ("jobs_effective", Json.Int run.jobs_effective);
            ( "sample_cycles",
              match run.sample_cycles with
              | Some k -> Json.Int k
              | None -> Json.Null );
          ] );
      ( "experiments",
        Json.Arr
          (List.map
             (fun (e : Recorder.experiment_entry) ->
               Json.Obj
                 [
                   ("id", Json.Str e.Recorder.exp_id);
                   ("title", Json.Str e.Recorder.exp_title);
                   ("paper_ref", Json.Str e.Recorder.exp_paper_ref);
                   ("wall_s", Json.Float e.Recorder.wall_s);
                   ("data", e.Recorder.exp_data);
                 ])
             experiments) );
      ( "series",
        Json.Obj
          [
            ("cells", Json.Int (List.length cells));
            ("series", Json.Int (List.length series));
            ("slices", Json.Int n_slices);
          ] );
      ("alerts", alerts_json events);
      ("profile", profile_json profile);
      ( "wall_clock",
        Json.Obj
          [
            ("experiments_total_s", Json.Float wall_total);
            ("spans", Json.Int (List.length spans));
          ] );
    ]
