(* The parallel experiment engine's contract: for every experiment, the
   rendered output is a pure function of (experiment, seed) — independent of
   the job count, because each cell derives its RNG stream from its label
   rather than from shared generator state. Verified here for table1, fig2
   and fig10 on the tiny machine with short windows. *)

open Ppp_core
open Ppp_experiments

let params ?(batch = 32) ~seed () =
  Runner.Params.(
    quick |> with_seed seed
    |> with_windows ~warmup:100_000 ~measure:300_000
    |> with_batch batch)

let with_jobs n f =
  let prev = Parallel.configured_jobs () in
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs prev) f

let render ?batch id ~seed ~jobs =
  match Registry.find id with
  | None -> Alcotest.failf "experiment %s not registered" id
  | Some e ->
      with_jobs jobs (fun () ->
          (e.Registry.run ~params:(params ?batch ~seed ()) ())
            .Ppp_experiments.Output.text)

let check_experiment id () =
  let sequential = render id ~seed:42 ~jobs:1 in
  let again = render id ~seed:42 ~jobs:1 in
  Alcotest.(check string)
    (id ^ ": same seed, same output") sequential again;
  let parallel = render id ~seed:42 ~jobs:4 in
  Alcotest.(check string)
    (id ^ ": --jobs 4 byte-identical to --jobs 1") sequential parallel;
  let other_seed = render id ~seed:43 ~jobs:4 in
  Alcotest.(check bool)
    (id ^ ": different seed, different output") true
    (not (String.equal sequential other_seed))

(* The two execution knobs together: a parallel batched run must render the
   same bytes as a sequential unbatched one — the golden-equality contract
   behind `repro ... --jobs N --batch M`. *)
let test_jobs_batch_golden_equality () =
  let baseline = render "fig2" ~seed:42 ~jobs:1 ~batch:1 in
  let tuned = render "fig2" ~seed:42 ~jobs:4 ~batch:32 in
  Alcotest.(check string)
    "fig2: --jobs 4 --batch 32 byte-identical to --jobs 1 --batch 1" baseline
    tuned

(* Same contract for the classifier experiment: its cells carry mutable
   per-flow state (flow table, upcall counters, slow-path scratch), all of
   which must be private to the cell for the knobs to stay pure. *)
let test_classifier_jobs_batch_golden_equality () =
  let baseline = render "classifier" ~seed:42 ~jobs:1 ~batch:1 in
  let tuned = render "classifier" ~seed:42 ~jobs:4 ~batch:32 in
  Alcotest.(check string)
    "classifier: --jobs 4 --batch 32 byte-identical to --jobs 1 --batch 1"
    baseline tuned

let test_rng_derivation () =
  (* The seed-derivation function itself: pure, label- and seed-sensitive. *)
  let d = Ppp_util.Rng.derive in
  Alcotest.(check int)
    "derive is pure" (d ~seed:42 "pair/IP/MON") (d ~seed:42 "pair/IP/MON");
  Alcotest.(check bool)
    "distinct labels split" true
    (d ~seed:42 "pair/IP/MON" <> d ~seed:42 "pair/IP/FW");
  Alcotest.(check bool)
    "distinct seeds split" true
    (d ~seed:42 "pair/IP/MON" <> d ~seed:43 "pair/IP/MON");
  Alcotest.(check bool)
    "derived seeds are nonnegative" true
    (d ~seed:(-5) "x" >= 0 && d ~seed:max_int "y" >= 0)

let test_parallel_map_order () =
  let xs = List.init 100 Fun.id in
  let doubled = with_jobs 4 (fun () -> Parallel.map (fun x -> 2 * x) xs) in
  Alcotest.(check (list int))
    "results in input order" (List.map (fun x -> 2 * x) xs) doubled;
  let indexed = with_jobs 3 (fun () -> Parallel.mapi (fun i x -> i - x) xs) in
  Alcotest.(check bool)
    "mapi passes matching indices" true (List.for_all (( = ) 0) indexed)

let test_parallel_map_exception () =
  let boom = Failure "cell 17" in
  let attempt jobs =
    match
      with_jobs jobs (fun () ->
          Parallel.map
            (fun x -> if x >= 17 then raise (Failure (Printf.sprintf "cell %d" x)) else x)
            (List.init 40 Fun.id))
    with
    | _ -> None
    | exception e -> Some e
  in
  Alcotest.(check bool)
    "sequential raises lowest-index failure" true (attempt 1 = Some boom);
  Alcotest.(check bool)
    "parallel raises the same failure" true (attempt 4 = Some boom)

(* The traffic experiment adds stateful sources (heavy-tail realizations,
   ON/OFF modulators, churn) and steering state to every cell; all of it
   must be derived from the cell label for the jobs/batch knobs to stay
   pure. *)
let test_traffic_jobs_batch_golden_equality () =
  let baseline = render "traffic" ~seed:42 ~jobs:1 ~batch:1 in
  let tuned = render "traffic" ~seed:42 ~jobs:4 ~batch:32 in
  Alcotest.(check string)
    "traffic: --jobs 4 --batch 32 byte-identical to --jobs 1 --batch 1"
    baseline tuned

let tests =
  [
    Alcotest.test_case "rng seed derivation" `Quick test_rng_derivation;
    Alcotest.test_case "parallel map order" `Quick test_parallel_map_order;
    Alcotest.test_case "parallel map exception" `Quick test_parallel_map_exception;
    Alcotest.test_case "table1 deterministic across jobs" `Slow
      (check_experiment "table1");
    Alcotest.test_case "fig2 deterministic across jobs" `Slow
      (check_experiment "fig2");
    Alcotest.test_case "fig10 deterministic across jobs" `Slow
      (check_experiment "fig10");
    Alcotest.test_case "classifier deterministic across jobs" `Slow
      (check_experiment "classifier");
    Alcotest.test_case "fig2 golden equality across jobs x batch" `Slow
      test_jobs_batch_golden_equality;
    Alcotest.test_case "classifier golden equality across jobs x batch" `Slow
      test_classifier_jobs_batch_golden_equality;
    Alcotest.test_case "traffic deterministic across jobs" `Slow
      (check_experiment "traffic");
    Alcotest.test_case "traffic golden equality across jobs x batch" `Slow
      test_traffic_jobs_batch_golden_equality;
  ]
