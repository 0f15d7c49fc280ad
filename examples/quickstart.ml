(* Quickstart: build a packet-processing flow from a Click-style config
   string, run it solo on the simulated platform, and read its profile —
   the "hello world" of the library.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Pick a machine. [scaled] is the paper's dual-socket Westmere scaled
     down 8x so experiments run in seconds. *)
  let config = Ppp_hw.Machine.scaled in
  let hier = Ppp_hw.Machine.build config in

  (* 2. Describe the packet processing with the Click-like config language.
     Element classes come from the registry that ppp.apps populates. *)
  Ppp_apps.App.register_all ();
  let chain =
    "FromDevice(0) -> CheckIPHeader -> RadixIPLookup(16384, 512) -> DecIPTTL \
     -> FlowStats(12500) -> ToDevice(0)"
  in
  let heap = Ppp_simmem.Heap.create ~node:0 in
  let rng = Ppp_util.Rng.create ~seed:1 in
  let elements =
    match Ppp_click.Config.parse chain with
    | Error e -> failwith e
    | Ok decls -> (
        let ctx =
          {
            Ppp_click.Config.Registry.heap;
            rng = Ppp_util.Rng.copy rng;
            scale = config.Ppp_hw.Machine.scale;
          }
        in
        match Ppp_click.Config.instantiate ctx decls with
        | Error e -> failwith e
        | Ok elements -> elements)
  in
  Printf.printf "chain: %s\n%!" chain;

  (* 3. Attach traffic. A source fills packets in place; here random
     5-tuples over the same deterministic route pool the lookup element
     built (seed 0x51CC5EED), so every packet is routable. *)
  let pool = Ppp_apps.Route_pool.make ~seed:0x51CC5EED ~n16:512 ~routes:16384 in
  let gen_rng = Ppp_util.Rng.split rng in
  let source =
    Ppp_traffic.Source.make
      ~fill:(fun _ pkt ->
        let f = Ppp_util.Rng.int gen_rng 12500 in
        let h = Ppp_util.Hashes.fnv1a_int f in
        Ppp_traffic.Gen.fill_ipv4_udp pkt
          ~src:(0x0A000000 lor (h land 0xFFFFFF))
          ~dst:(Ppp_apps.Route_pool.dst_of_flow pool f)
          ~sport:(1024 + (h lsr 24 land 0x3FFF))
          ~dport:(1024 + (h lsr 40 land 0x3FFF))
          ~wire_len:64;
        Ppp_traffic.Source.Filled)
      ()
  in

  (* 4. Wrap everything into a flow on core 0 and run it to steady state. *)
  let flow =
    Ppp_click.Flow.create ~heap ~label:"demo" ~source ~elements ()
  in
  let results =
    Ppp_hw.Engine.run hier
      ~flows:
        [ { Ppp_hw.Engine.core = 0; label = "demo"; source = Ppp_click.Flow.source flow } ]
      ~warmup_cycles:3_000_000 ~measure_cycles:10_000_000
  in

  (* 5. Read the hardware counters, Oprofile-style. *)
  List.iter
    (fun (r : Ppp_hw.Engine.result) ->
      let c = r.Ppp_hw.Engine.counters in
      let per_packet n = float_of_int n /. float_of_int (max 1 r.Ppp_hw.Engine.packets) in
      Printf.printf "throughput:      %.0f packets/sec\n" r.Ppp_hw.Engine.throughput_pps;
      Printf.printf "L3 refs/sec:     %.1fM (hits %.1fM)\n"
        (r.Ppp_hw.Engine.l3_refs_per_sec /. 1e6)
        (r.Ppp_hw.Engine.l3_hits_per_sec /. 1e6);
      Printf.printf "per packet:      %.1f L1 hits, %.1f L2 hits, %.1f L3 refs, %.1f misses\n"
        (per_packet (Ppp_hw.Counters.l1_hits c))
        (per_packet (Ppp_hw.Counters.l2_hits c))
        (per_packet (Ppp_hw.Counters.l3_refs c))
        (per_packet (Ppp_hw.Counters.l3_misses c));
      Printf.printf "forwarded/dropped: %d/%d\n" (Ppp_click.Flow.forwarded flow)
        (Ppp_click.Flow.dropped flow))
    results
