let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The one shared "make sure this output directory exists" entry point: the
   CLIs' --metrics / --profile-out / --monitor-out all funnel through here. *)
let ensure_dir = mkdir_p

let deterministic_trace ~meta =
  Chrome.trace ~include_wall_clock:false ~events:(Recorder.events ())
    ~profile:(Recorder.profile ()) ~series:(Recorder.series ()) ~spans:[]
    ~meta ()

let write_trace ~path ~meta =
  Json.write_file path
    (Chrome.trace ~events:(Recorder.events ())
       ~profile:(Recorder.profile ()) ~series:(Recorder.series ())
       ~spans:(Recorder.spans ()) ~meta ())

let write_string path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_metrics_dir ~dir ~run =
  ensure_dir dir;
  let series = Recorder.series () in
  let spans = Recorder.spans () in
  let events = Recorder.events () in
  write_string (Filename.concat dir "series.csv") (Csv.series_csv series);
  write_string (Filename.concat dir "spans.csv") (Csv.spans_csv spans);
  Json.write_file
    (Filename.concat dir "manifest.json")
    (Manifest.json ~events ~profile:(Recorder.profile ()) ~run
       ~experiments:(Recorder.experiments ())
       ~series ~spans ())

let write_profile_dir ~dir =
  ensure_dir dir;
  let entries = Recorder.profile () in
  write_string
    (Filename.concat dir "profile_cycles.folded")
    (Profile.folded_cycles entries);
  write_string
    (Filename.concat dir "profile_l3_misses.folded")
    (Profile.folded_l3_misses entries);
  write_string (Filename.concat dir "top.txt")
    (Profile.top ~title:"all cells" entries)

let write_monitor_dir ~dir ~alerts ~timeline_csv =
  ensure_dir dir;
  Json.write_file (Filename.concat dir "alerts.json") alerts;
  write_string (Filename.concat dir "monitor.csv") timeline_csv
