(* perfbench: one workload, one process, one domain.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe record --workload W --seeds A-B

   Run it from the root of a checkout: it reads perfbench/digests.txt and
   the golden snapshots under test/golden.

   The first form prints a header, the checks, a metric table and, as the
   last line, the JSON result; it exits 1 if a check failed. With --trace 1
   it prints the per-layer metrics and a self-time table instead, and
   writes the spans to DIR/trace_<workload>_<seed>.json. The second form
   prints digest lines for perfbench/digests.txt. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]\n\
    \       main.exe record --workload W --seeds A-B";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let rec parse acc = function
  | [] -> acc
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | _ -> usage ()

let int_arg opts k ~default =
  match List.assoc_opt k opts with
  | None -> (match default with Some d -> d | None -> fail "missing --%s" k)
  | Some v -> (match int_of_string_opt v with Some n -> n | None -> fail "--%s: not an integer: %s" k v)

let str_arg opts k ~default = Option.value (List.assoc_opt k opts) ~default

let workload opts =
  match List.assoc_opt "workload" opts with
  | Some w when List.mem w Workloads.names -> w
  | Some w -> fail "unknown workload %s (one of: %s)" w (String.concat ", " Workloads.names)
  | None -> fail "missing --workload"

let load_digests path =
  if not (Sys.file_exists path) then fail "no digest table at %s" path;
  Digests.load path

let record opts =
  let w = workload opts in
  let seeds = str_arg opts "seeds" ~default:"42-42" in
  let lo, hi =
    match String.split_on_char '-' seeds |> List.map int_of_string_opt with
    | [ Some a; Some b ] -> (a, b)
    | _ -> fail "--seeds: expected A-B"
  in
  for seed = lo to hi do
    let lines =
      match Workloads.find_mix w with
      | None -> Workloads.Suite.record seed
      | Some m -> Workloads.Mix.record m seed
    in
    List.iter print_endline lines;
    flush stdout
  done

let run opts =
  let w = workload opts in
  let seed = int_arg opts "seed" ~default:None in
  let seconds = int_arg opts "seconds" ~default:(Some 10) in
  let trace =
    match int_arg opts "trace" ~default:(Some 0) with
    | (0 | 1) as t -> t = 1
    | _ -> fail "--trace must be 0 or 1"
  in
  if seconds < 1 then fail "--seconds must be >= 1";
  let out_dir = str_arg opts "out" ~default:"." in
  let ctx =
    {
      Workloads.seed;
      seconds;
      digests = load_digests "perfbench/digests.txt";
      checks = Checks.create ();
      tracer = Spans.create ();
    }
  in
  Ppp_core.Parallel.set_jobs 1;
  let calib_ns = Clock.calib_ns () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d\n" w seed seconds
    (Bool.to_int trace);
  Printf.printf "host nproc=%d ocaml=%s jobs=1 domains=1 host.calib_ns=%.4f\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version calib_ns;
  let metrics =
    match (Workloads.find_mix w, trace) with
    | None, false -> Workloads.Suite.untraced ctx
    | None, true -> Workloads.Suite.traced ctx ~calib_ns
    | Some m, false -> Workloads.Mix.untraced ctx m
    | Some m, true -> Workloads.Mix.traced ctx ~calib_ns m
  in
  List.iter (fun (x : Report.metric) -> Checks.finite ctx.checks ("finite " ^ x.Report.name) x.value) metrics;
  let s = Checks.summary ctx.checks in
  let metrics =
    if trace then metrics
    else
      metrics
      @ Report.
          [
            m "checks" "count" (float_of_int s.Checks.checks);
            m "check_pass_share" "share"
              (float_of_int s.passed /. float_of_int (max 1 (s.passed + s.failed)));
          ]
  in
  if trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "trace_%s_%d.json" w seed) in
    Spans.write_trace path ctx.tracer
      ~meta:[ ("workload", w); ("seed", string_of_int seed); ("tool", "perfbench") ];
    Printf.printf "trace written to %s\nself time by layer (traced run):\n" path;
    Spans.print_self_table stdout ctx.tracer
  end;
  Checks.print stdout ctx.checks;
  Report.print_table stdout metrics;
  Printf.printf "checks=%d passed=%d failed=%d unverified=%d\n" s.checks s.passed s.failed
    s.unverified;
  let correct = s.failed = 0 in
  print_endline
    (Report.json_line ~correct ~attempted:(s.passed + s.failed) ~failed:s.failed metrics);
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "record" :: rest -> record (parse [] rest)
  | _ :: rest -> run (parse [] rest)
  | [] -> usage ()
