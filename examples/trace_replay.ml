(* Capture-and-replay: write a workload to a standard pcap file, load it
   back, and drive a flow with the replayed trace instead of a synthetic
   generator — how you would evaluate the platform on your own traffic.

   Run with: dune exec examples/trace_replay.exe *)

open Ppp_core

let () =
  let params =
    Runner.Params.(default |> with_windows ~warmup:2_000_000 ~measure:8_000_000)
  in
  let scale = params.Runner.config.Ppp_hw.Machine.scale in
  let rng = Ppp_util.Rng.create ~seed:7 in

  (* 1. Capture 4096 packets of MON traffic into a pcap. *)
  let capture_heap = Ppp_simmem.Heap.create ~node:1 in
  let built = Ppp_apps.App.build Ppp_apps.App.MON ~heap:capture_heap ~rng ~scale in
  let cap = Ppp_traffic.Pcap.create () in
  let pkt = Ppp_net.Packet.create 60 in
  let rec capture n =
    if n > 0 then
      match Ppp_traffic.Source.fill built.Ppp_apps.App.source pkt with
      | Ppp_traffic.Source.Filled ->
          Ppp_traffic.Pcap.append cap pkt;
          capture (n - 1)
      | Ppp_traffic.Source.Exhausted -> ()
  in
  capture 4096;
  let path = Filename.temp_file "ppp_trace" ".pcap" in
  Ppp_traffic.Pcap.save cap path;
  Printf.printf "captured %d packets -> %s (%d bytes)\n%!"
    (Ppp_traffic.Pcap.length cap) path
    (Bytes.length (Ppp_traffic.Pcap.to_bytes cap));

  (* 2. Load it back and replay it through a fresh MON flow on core 0, its
     data on node 0. *)
  let replayed =
    match Ppp_traffic.Pcap.load path with
    | Ok c -> c
    | Error e -> failwith e
  in
  let results, () =
    Runner.run_with ~params (fun _hier ~heaps ~rng ->
        let heap = heaps.(0) in
        let built =
          Ppp_apps.App.build Ppp_apps.App.MON ~heap ~rng:(Ppp_util.Rng.split rng)
            ~scale
        in
        let flow =
          Ppp_click.Flow.create ~heap ~label:"replay"
            ~source:(Ppp_traffic.Pcap.replay replayed)
            ~elements:built.Ppp_apps.App.elements ()
        in
        ( [
            {
              Ppp_hw.Engine.core = 0;
              label = "replay";
              source = Ppp_click.Flow.source flow;
            };
          ],
          () ))
  in
  List.iter
    (fun (r : Ppp_hw.Engine.result) ->
      Printf.printf
        "replayed at %.0f pps — L3 %.1fM refs/s, latency p50/p99 = %d/%d \
         cycles\n"
        r.Ppp_hw.Engine.throughput_pps
        (r.Ppp_hw.Engine.l3_refs_per_sec /. 1e6)
        (Ppp_util.Histogram.percentile r.Ppp_hw.Engine.latency 50.0)
        (Ppp_util.Histogram.percentile r.Ppp_hw.Engine.latency 99.0))
    results;
  Sys.remove path
