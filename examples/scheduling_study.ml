(* Is contention-aware scheduling worth it for your workload?

   Enumerates every distinct flow-to-socket placement of a 12-flow
   combination, measures each, and reports the best/worst spread — the
   paper's Section 5 analysis, reusable for any combination.

   Run with: dune exec examples/scheduling_study.exe *)

open Ppp_core

let combo = Ppp_apps.App.[ (MON, 6); (FW, 6) ]

let () =
  let params = Runner.Params.default in
  Printf.printf "combination: %s\n" (Scheduler.combo_name combo);
  let placements = Scheduler.splits ~config:params.Runner.config combo in
  Printf.printf "distinct placements (up to socket symmetry): %d\n%!"
    (List.length placements);
  let evals = Scheduler.evaluate ~params combo in
  let show (e : Scheduler.evaluation) =
    String.concat " | "
      (List.map
         (fun socket ->
           String.concat "," (List.map Ppp_apps.App.name socket))
         e.Scheduler.per_socket)
  in
  List.iter
    (fun (e : Scheduler.evaluation) ->
      Printf.printf "  avg drop %5.2f%%   %s\n" (100.0 *. e.Scheduler.avg_drop)
        (show e))
    (List.sort (fun a b -> compare a.Scheduler.avg_drop b.Scheduler.avg_drop) evals);
  let best = Scheduler.best evals and worst = Scheduler.worst evals in
  Printf.printf
    "\nbest placement:  %s (avg drop %.2f%%)\nworst placement: %s (avg drop \
     %.2f%%)\nscheduling gain: %.2f percentage points\n"
    (show best)
    (100.0 *. best.Scheduler.avg_drop)
    (show worst)
    (100.0 *. worst.Scheduler.avg_drop)
    (100.0 *. Scheduler.gain evals);
  if Scheduler.gain evals < 0.03 then
    print_endline
      "=> as in the paper: contention-aware scheduling buys almost nothing \
       here."
