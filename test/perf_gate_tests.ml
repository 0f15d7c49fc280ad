(* The perf-gate report behind `bench/main.exe`: the committed
   BENCH_engine.json must keep its schema (CI parses it), and the recorded
   trajectory must never lose points. *)

module J = Ppp_telemetry.Json
module G = Ppp_core.Perf_gate

let report = lazy (G.run ~quick:true ~runs:1 ())

let top_keys json =
  match json with
  | J.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "perf-gate report is not a JSON object"

let test_required_keys () =
  (* Pin the contract itself: CI and external consumers parse these keys
     out of BENCH_engine.json, so losing one from required_keys is a
     breaking change even if to_json still emits it. *)
  Alcotest.(check (list string))
    "required keys pinned"
    [
      "schema"; "tool"; "config"; "seed"; "quick"; "warmup_cycles";
      "measure_cycles"; "batch"; "workloads"; "profile_overhead"; "hit_path";
      "flow_table"; "source_fill"; "trajectory";
    ]
    G.required_keys;
  let keys = top_keys (G.to_json (Lazy.force report)) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "key %S present" k) true
        (List.mem k keys))
    G.required_keys

let test_workloads () =
  let r = Lazy.force report in
  Alcotest.(check (list string))
    "the four gated workloads, in order"
    [ "solo"; "contended"; "probed"; "profiled" ]
    (List.map (fun (m : G.measurement) -> m.G.name) r.G.workloads);
  List.iter
    (fun (m : G.measurement) ->
      Alcotest.(check bool) (m.G.name ^ ": ops counted") true
        (m.G.engine_ops > 0);
      Alcotest.(check bool) (m.G.name ^ ": positive rate") true
        (m.G.ops_per_sec > 0.0);
      Alcotest.(check bool) (m.G.name ^ ": packets flowed") true
        (m.G.window_packets > 0))
    r.G.workloads;
  (* Attribution is pure observation: the profiled window must replay the
     contended simulation exactly, ops and packets both. *)
  let find name =
    List.find (fun (m : G.measurement) -> m.G.name = name) r.G.workloads
  in
  Alcotest.(check int)
    "profiled replays contended: same engine ops"
    (find "contended").G.engine_ops (find "profiled").G.engine_ops;
  Alcotest.(check int)
    "profiled replays contended: same packets"
    (find "contended").G.window_packets (find "profiled").G.window_packets

let test_flow_table_loop () =
  let ft = (Lazy.force report).G.flow_table in
  Alcotest.(check bool) "lookups counted" true (ft.G.lookups > 0);
  Alcotest.(check bool) "positive rate" true (ft.G.lookups_per_sec > 0.0);
  (* 3/4 of the pool is installed and the table never evicts at this load,
     so the stream's hit fraction is exact. *)
  Alcotest.(check (float 1e-9)) "hit fraction pinned by construction" 0.75
    ft.G.hit_fraction;
  Alcotest.(check bool) "fast-path lookup loop is allocation-free" true
    ft.G.ft_zero_alloc

let test_source_fill_loop () =
  let sf = (Lazy.force report).G.source_fill in
  Alcotest.(check bool) "fills counted" true (sf.G.fills > 0);
  Alcotest.(check bool) "positive rate" true (sf.G.fills_per_sec > 0.0);
  Alcotest.(check bool) "Source.fill hot path is allocation-free" true
    sf.G.sf_zero_alloc

let test_trajectory () =
  (* The history is append-only: the pre-optimization baseline must always
     be point zero, so regenerating BENCH_engine.json never loses it. *)
  match G.trajectory with
  | [] -> Alcotest.fail "trajectory must keep the pre-optimization baseline"
  | first :: _ ->
      Alcotest.(check bool) "baseline point records the old engine" true
        (first.G.contended_ops_per_sec > 0.0
        && first.G.hit_path_bytes_per_access > 0.0)

let test_json_parses_back () =
  (* write_file output must be valid for json.tool-style consumers: a
     round-trip through the serializer is deterministic. *)
  let j = G.to_json (Lazy.force report) in
  let s = J.to_string j in
  Alcotest.(check string) "serialization deterministic" s (J.to_string j);
  Alcotest.(check bool) "non-trivial" true (String.length s > 200)

let tests =
  [
    Alcotest.test_case "report has required keys" `Quick test_required_keys;
    Alcotest.test_case "workload measurements sane" `Quick test_workloads;
    Alcotest.test_case "flow-table lookup loop" `Quick test_flow_table_loop;
    Alcotest.test_case "source-fill loop" `Quick test_source_fill_loop;
    Alcotest.test_case "trajectory keeps baseline" `Quick test_trajectory;
    Alcotest.test_case "serialization deterministic" `Quick
      test_json_parses_back;
  ]
