(* Predicting a production mix before deploying it (the paper's Section 4
   workflow, as an operator would use it):

   1. Profile each flow type offline (solo refs/sec + SYN sensitivity curve).
   2. Predict each flow's contention-induced drop for the planned placement.
   3. Deploy (run) the mix and compare.

   Run with: dune exec examples/predict_mix.exe *)

open Ppp_core

let mix = Ppp_apps.App.[ MON; IP; VPN; RE; FW; MON ]

let () =
  let params = Runner.Params.default in
  let kinds = List.sort_uniq compare mix in

  Printf.printf "offline profiling of %d flow types (solo run + SYN ramp)...\n%!"
    (List.length kinds);
  let predictor = Predictor.build ~params ~targets:kinds () in
  List.iter
    (fun k ->
      Printf.printf "  %-4s solo: %8.0f pps, %6.1fM L3 refs/sec\n"
        (Ppp_apps.App.name k)
        (Predictor.solo_throughput predictor k)
        (Predictor.solo_refs_per_sec predictor k /. 1e6))
    kinds;

  Printf.printf "\nplanned placement (one socket): %s\n%!"
    (String.concat ", " (List.map Ppp_apps.App.name mix));
  let predictions = Predictor.predict_mix predictor mix in

  Printf.printf "deploying the mix...\n%!";
  let topo = params.Runner.config.Ppp_hw.Machine.topology in
  let specs =
    List.mapi
      (fun core kind ->
        Runner.flow_on ~node:(Ppp_hw.Topology.socket_of_core topo core) ~core
          kind)
      mix
  in
  let results = Runner.run ~params specs in

  let t =
    Ppp_util.Table.create ~title:"predicted vs measured contention drop"
      [ "flow"; "predicted (%)"; "measured (%)"; "abs error (pp)" ]
  in
  List.iter2
    (fun (kind, predicted, _) corun ->
      let measured =
        Runner.drop ~solo:(Predictor.solo predictor kind) ~corun
      in
      Ppp_util.Table.add_row t
        [
          Ppp_apps.App.name kind;
          Printf.sprintf "%.2f" (100.0 *. predicted);
          Printf.sprintf "%.2f" (100.0 *. measured);
          Printf.sprintf "%.2f" (100.0 *. Float.abs (predicted -. measured));
        ])
    predictions results;
  Ppp_util.Table.print t
