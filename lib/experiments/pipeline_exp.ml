open Ppp_core

type side = {
  label : string;
  throughput_pps : float;
  per_core_pps : float;
  l3_refs_per_packet : float;
  l3_misses_per_packet : float;
  cores : int;
}

type data = {
  ip_parallel : side;
  ip_pipeline : side;
  extra_refs_per_packet : float;
  syn_parallel : side;
  syn_pipeline : side;
}

let side_of_results label results =
  let packets =
    List.fold_left
      (fun acc (r : Ppp_hw.Engine.result) -> acc + r.Ppp_hw.Engine.packets)
      0 results
  in
  let misses =
    List.fold_left
      (fun acc (r : Ppp_hw.Engine.result) ->
        acc + Ppp_hw.Counters.l3_misses r.Ppp_hw.Engine.counters)
      0 results
  in
  let refs =
    List.fold_left
      (fun acc (r : Ppp_hw.Engine.result) ->
        acc + Ppp_hw.Counters.l3_refs r.Ppp_hw.Engine.counters)
      0 results
  in
  let pps =
    List.fold_left
      (fun acc (r : Ppp_hw.Engine.result) ->
        acc +. r.Ppp_hw.Engine.throughput_pps)
      0.0 results
  in
  let cores = List.length results in
  {
    label;
    throughput_pps = pps;
    per_core_pps = pps /. float_of_int cores;
    l3_refs_per_packet = Runner.per_packet refs ~packets;
    l3_misses_per_packet = Runner.per_packet misses ~packets;
    cores;
  }

(* Parallel approach: one core performs the whole chain for its flow. *)
let run_parallel ~params ~cell ~mk_flow =
  fst
    (Runner.run_with ~params:(Runner.Params.with_cell cell params)
       (fun _ ~heaps ~rng ->
         let source = mk_flow ~heap:heaps.(0) ~rng:(Ppp_util.Rng.split rng) in
         ([ { Ppp_hw.Engine.core = 0; label = "parallel"; source } ], ())))

(* Pipeline: one staged flow across two cores. *)
let run_pipeline ~params ~cell ~cores ~mk_staged =
  fst
    (Runner.run_with ~params:(Runner.Params.with_cell cell params)
       (fun _ ~heaps ~rng ->
         let sources = Ppp_click.Staged.sources (mk_staged ~heaps ~rng) in
         ( List.mapi
             (fun i core ->
               { Ppp_hw.Engine.core; label = Printf.sprintf "stage%d" i;
                 source = sources.(i) })
             cores,
           () )))

let measure ?(params = Runner.Params.default) () =
  let config = params.Runner.config in
  let scale = config.Ppp_hw.Machine.scale in
  let l3 = Ppp_hw.Machine.l3_bytes config in
  (* --- IP forwarding: parallel wins. --- *)
  let mk_ip_flow ~heap ~rng =
    let b = Ppp_apps.App.build Ppp_apps.App.IP ~heap ~rng ~scale in
    Ppp_click.Flow.source
      (Ppp_click.Flow.create ~heap ~label:"IP"
         ~source:b.Ppp_apps.App.source ~elements:b.Ppp_apps.App.elements ())
  in
  let ip_par =
    side_of_results "IP parallel (1 core)"
      (run_parallel ~params ~cell:"pipeline/ip/parallel" ~mk_flow:mk_ip_flow)
  in
  let mk_ip_staged ~heaps ~rng =
    let b = Ppp_apps.App.build Ppp_apps.App.IP ~heap:heaps.(0) ~rng ~scale in
    let stage0, stage1 =
      match b.Ppp_apps.App.elements with
      | first :: rest -> ([ first ], rest)
      | [] -> assert false
    in
    Ppp_click.Staged.create ~heap:heaps.(0) ~source:b.Ppp_apps.App.source
      ~stages:[ stage0; stage1 ] ()
  in
  let ip_pipe =
    side_of_results "IP pipeline (2 cores)"
      (run_pipeline ~params ~cell:"pipeline/ip/pipeline" ~cores:[ 0; 1 ]
         ~mk_staged:mk_ip_staged)
  in
  (* --- Contrived SYN workload: pipeline wins. ---
     Parallel: each core makes many random reads into a structure twice the
     L3. Pipeline: the structure is split in half across the two sockets'
     caches, each stage handling its half. *)
  let reads_total = 200 in
  let syn_buffer = 2 * l3 in
  let mk_syn_flow ~heap ~rng =
    let syn =
      Ppp_apps.More_elements.Syn.create ~heap ~rng ~buffer_bytes:syn_buffer
        ~reads_per_packet:reads_total ~instrs_per_packet:100
    in
    Ppp_click.Flow.source
      (Ppp_click.Flow.create ~heap ~label:"SYN2x"
         ~source:(Ppp_traffic.Source.constant ())
         ~elements:[ Ppp_apps.More_elements.Syn.element syn ] ())
  in
  let syn_par =
    side_of_results "SYN-2xL3 parallel (1 core)"
      (run_parallel ~params ~cell:"pipeline/syn/parallel" ~mk_flow:mk_syn_flow)
  in
  let mk_syn_staged ~heaps ~rng =
    let half node =
      Ppp_apps.More_elements.Syn.create ~heap:heaps.(node)
        ~rng:(Ppp_util.Rng.split rng)
        ~buffer_bytes:(l3 * 9 / 10) ~reads_per_packet:(reads_total / 2)
        ~instrs_per_packet:50
    in
    Ppp_click.Staged.create ~heap:heaps.(0)
      ~source:(Ppp_traffic.Source.constant ())
      ~stages:
        [
          [ Ppp_apps.More_elements.Syn.element (half 0) ];
          [ Ppp_apps.More_elements.Syn.element (half 1) ];
        ]
      ()
  in
  let cps = Ppp_hw.Machine.cores_per_socket config in
  let syn_pipe =
    side_of_results "SYN-2xL3 pipeline (2 sockets)"
      (run_pipeline ~params ~cell:"pipeline/syn/pipeline" ~cores:[ 0; cps ]
         ~mk_staged:mk_syn_staged)
  in
  {
    ip_parallel = ip_par;
    ip_pipeline = ip_pipe;
    extra_refs_per_packet =
      ip_pipe.l3_refs_per_packet -. ip_par.l3_refs_per_packet;
    syn_parallel = syn_par;
    syn_pipeline = syn_pipe;
  }

(* The per-core throughput a pipelined side is compared with; a parallel
   baseline that completed no packet leaves the ratio undefined. *)
let baseline_pps s =
  if s.per_core_pps <= 0.0 then
    invalid_arg
      (Printf.sprintf
         "Pipeline_exp: %s completed no packets in its measurement window"
         s.label);
  s.per_core_pps

let columns =
  Output.
    [
      col "configuration" "configuration" str (fun s -> s.label);
      col "cores" "cores" int (fun s -> s.cores);
      col "throughput_pps" "throughput (pps)" f0 (fun s -> s.throughput_pps);
      col "per_core_pps" "pps/core" f0 (fun s -> s.per_core_pps);
      col "l3_refs_per_packet" "L3 refs/packet" f2 (fun s ->
          s.l3_refs_per_packet);
      col "l3_misses_per_packet" "L3 misses/packet" f2 (fun s ->
          s.l3_misses_per_packet);
    ]

let sides data =
  [ data.ip_parallel; data.ip_pipeline; data.syn_parallel; data.syn_pipeline ]

let render data =
  let ip_par = baseline_pps data.ip_parallel
  and syn_par = baseline_pps data.syn_parallel in
  Output.text_table ~title:"Section 2.2: parallel vs pipelined parallelization"
    columns (sides data)
  ^ Printf.sprintf
      "\npipelining the IP workload costs %.1f extra L3 refs/packet and %.1f%% \
       of per-core throughput;\nthe contrived 2xL3 workload gains %.1fx \
       per-core from pipelining across sockets.\n"
      data.extra_refs_per_packet
      (100.0 *. (ip_par -. data.ip_pipeline.per_core_pps) /. ip_par)
      (data.syn_pipeline.per_core_pps /. syn_par)

let data_json data =
  let open Output in
  Json.Obj
    [
      ("sides", table columns (sides data));
      ("extra_refs_per_packet", Json.Float data.extra_refs_per_packet);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
