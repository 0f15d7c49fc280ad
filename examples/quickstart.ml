(* Quickstart: build a packet-processing flow, run it solo on the simulated
   platform, and read its profile — the "hello world" of the library.

   The run is the one `repro mix MON` makes, so both print the same
   throughput and L3 rates.

   Run with: dune exec examples/quickstart.exe *)

open Ppp_core

let () =
  (* 1. Pick a machine and windows. The defaults are the paper's
     dual-socket Westmere scaled down 8x so experiments run in seconds, a
     3M-cycle warmup and a 10M-cycle measurement, and seed 42. *)
  let params = Runner.Params.default in
  let config = params.Runner.config in

  (* 2. Build the flow inside the runner, which makes the machine, one heap
     per NUMA node and the root generator. MON is the paper's monitoring
     flow: IP forwarding (header check, radix-trie lookup, TTL decrement)
     plus NetFlow statistics, driven by uniformly random 5-tuples. Its data
     lives on node 0, local to core 0. The flow itself is the builder's
     state, read after the run. *)
  let results, flow =
    Runner.run_with ~params (fun _hier ~heaps ~rng ->
        let flow =
          Ppp_apps.App.flow Ppp_apps.App.MON ~heap:heaps.(0)
            ~rng:(Ppp_util.Rng.split rng) ~scale:config.Ppp_hw.Machine.scale
            ()
        in
        ( [
            {
              Ppp_hw.Engine.core = 0;
              label = Ppp_click.Flow.label flow;
              source = Ppp_click.Flow.source flow;
            };
          ],
          flow ))
  in
  Printf.printf "flow: %s on core 0 of the %s machine\n"
    (Ppp_click.Flow.label flow) config.Ppp_hw.Machine.name;

  (* 3. Read the hardware counters, Oprofile-style. *)
  List.iter
    (fun (r : Ppp_hw.Engine.result) ->
      let c = r.Ppp_hw.Engine.counters in
      let per_packet n =
        Runner.per_packet n ~packets:r.Ppp_hw.Engine.packets
      in
      Printf.printf "throughput:      %.0f packets/sec\n"
        r.Ppp_hw.Engine.throughput_pps;
      Printf.printf "L3 refs/sec:     %.1fM (hits %.1fM)\n"
        (r.Ppp_hw.Engine.l3_refs_per_sec /. 1e6)
        (r.Ppp_hw.Engine.l3_hits_per_sec /. 1e6);
      Printf.printf
        "per packet:      %.1f L1 hits, %.1f L2 hits, %.1f L3 refs, %.1f \
         misses\n"
        (per_packet (Ppp_hw.Counters.l1_hits c))
        (per_packet (Ppp_hw.Counters.l2_hits c))
        (per_packet (Ppp_hw.Counters.l3_refs c))
        (per_packet (Ppp_hw.Counters.l3_misses c));
      Printf.printf "forwarded/dropped: %d/%d\n"
        (Ppp_click.Flow.forwarded flow)
        (Ppp_click.Flow.dropped flow))
    results
