open Ppp_traffic

let test_zipf_bounds () =
  let z = Zipf.create ~n:100 ~s:1.0 in
  let rng = Ppp_util.Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 100)
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~s:1.2 in
  let rng = Ppp_util.Rng.create ~seed:2 in
  let top10 = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Zipf.sample z rng < 10 then incr top10
  done;
  (* With s = 1.2, the top-10 ranks carry far more than 1% of the mass. *)
  Alcotest.(check bool) "head heavy" true (!top10 > n / 5)

let test_zipf_uniform_when_s0 () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  Alcotest.(check (float 1e-9)) "uniform mass" 0.5 (Zipf.expected_mass z 5)

let test_zipf_expected_mass_monotone () =
  let z = Zipf.create ~n:50 ~s:0.8 in
  Alcotest.(check bool) "monotone" true
    (Zipf.expected_mass z 10 < Zipf.expected_mass z 20);
  Alcotest.(check (float 1e-9)) "total" 1.0 (Zipf.expected_mass z 50)

let test_gen_builds_valid_frames () =
  let p = Ppp_net.Packet.create 128 in
  Gen.fill_ipv4_udp p ~src:0x0A000001 ~dst:0x0B000002 ~sport:53 ~dport:5353
    ~wire_len:90;
  Alcotest.(check int) "len" 90 p.Ppp_net.Packet.len;
  Alcotest.(check int) "ethertype" Ppp_net.Ethernet.ethertype_ipv4
    (Ppp_net.Ethernet.ethertype p);
  Alcotest.(check bool) "valid IP" true (Ppp_net.Ipv4.valid p);
  Alcotest.(check int) "sport" 53 (Ppp_net.Transport.src_port p)

let test_gen_rejects_short () =
  let p = Ppp_net.Packet.create 128 in
  Alcotest.check_raises "short" (Invalid_argument "Gen.fill_ipv4_udp: too short")
    (fun () ->
      Gen.fill_ipv4_udp p ~src:0 ~dst:0 ~sport:0 ~dport:0 ~wire_len:40)

let test_seeded_payload_deterministic () =
  let p1 = Ppp_net.Packet.create 256 and p2 = Ppp_net.Packet.create 256 in
  Ppp_net.Packet.resize p1 200;
  Ppp_net.Packet.resize p2 200;
  Gen.seeded_payload ~seed:99 p1 ~pos:42 ~len:150;
  Gen.seeded_payload ~seed:99 p2 ~pos:42 ~len:150;
  Alcotest.(check string) "identical"
    (Ppp_net.Packet.sub_string p1 ~pos:42 ~len:150)
    (Ppp_net.Packet.sub_string p2 ~pos:42 ~len:150);
  Gen.seeded_payload ~seed:100 p2 ~pos:42 ~len:150;
  Alcotest.(check bool) "different seed differs" false
    (Ppp_net.Packet.sub_string p1 ~pos:42 ~len:150
    = Ppp_net.Packet.sub_string p2 ~pos:42 ~len:150)

let prop_zipf_in_range =
  QCheck.Test.make ~count:200 ~name:"zipf sample within [0,n)"
    QCheck.(pair (int_range 1 500) (float_bound_inclusive 2.0))
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      let rng = Ppp_util.Rng.create ~seed:(n + int_of_float (s *. 100.0)) in
      let v = Zipf.sample z rng in
      v >= 0 && v < n)

(* ---- Traffic.Source layer properties -------------------------------- *)

(* Seeds are derived from the sampled parameters, so each property is a
   deterministic function of the qcheck draw: failures replay exactly.
   Parameters are clamped into their domain inside the property because
   qcheck's int_range shrinker can step outside the range while
   minimizing a counterexample. *)
let seed_of a b = 0x9E37 + (a * 7919) + b
let clamp lo hi v = lo + (abs v mod (hi - lo + 1))

let prop_heavy_tail_top_mass =
  (* A single realization's top-k mass swings wildly (one elephant drawn
     near the cap moves the total), so compare the mean over 8 seeds and
     cap sizes at 1000 packets. Over every input small_int can draw,
     (a, b) in [0, 99]^2, the worst mean-deviation is 0.143, at (14, 61):
     those 8 seeds draw several elephants near the cap. The reference's own
     bias is under 0.02 (see the many-seed case below). *)
  QCheck.Test.make ~count:60 ~name:"heavy_tail: top-k mass matches analytic"
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let flows = clamp 512 4096 a in
      let alpha = float_of_int (clamp 105 195 b) /. 100.0 in
      let k = max 1 (flows / 20) in
      let reps = 8 in
      let acc = ref 0.0 in
      for r = 0 to reps - 1 do
        let ht =
          Heavy_tail.create
            ~seed:(seed_of flows b + (r * 7919))
            ~flows ~alpha ~max_pkts:1000 ()
        in
        acc := !acc +. Heavy_tail.top_mass ht ~k
      done;
      let mean = !acc /. float_of_int reps in
      let analytic =
        Heavy_tail.analytic_top_mass ~flows ~alpha ~max_pkts:1000 ~k ()
      in
      Float.abs (mean -. analytic) < 0.15)

(* The reference against a 500-seed mean, where one realization's spread
   no longer hides a bias. Measured gaps: 0.006, 0.004 and 0.003; a
   reference over the continuous quantile, ignoring that sizes are
   floored, was 0.03-0.04 low at all three. *)
let test_heavy_tail_reference_bias () =
  List.iter
    (fun (flows, alpha) ->
      let k = max 1 (flows / 20) and seeds = 500 in
      let acc = ref 0.0 in
      for s = 0 to seeds - 1 do
        let ht =
          Heavy_tail.create ~seed:(1000 + s) ~flows ~alpha ~max_pkts:1000 ()
        in
        acc := !acc +. Heavy_tail.top_mass ht ~k
      done;
      let mean = !acc /. float_of_int seeds in
      let reference =
        Heavy_tail.analytic_top_mass ~flows ~alpha ~max_pkts:1000 ~k ()
      in
      Alcotest.(check (float 0.015))
        (Printf.sprintf "flows %d, alpha %.2f" flows alpha)
        mean reference)
    [ (523, 1.66); (611, 1.95); (2048, 1.30) ]

let prop_heavy_tail_determinism =
  QCheck.Test.make ~count:50 ~name:"heavy_tail: same seed, same realization"
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let flows = clamp 16 2048 a in
      let alpha100 = clamp 105 195 b in
      let alpha = float_of_int alpha100 /. 100.0 in
      let seed = seed_of flows alpha100 in
      let a = Heavy_tail.create ~seed ~flows ~alpha () in
      let b = Heavy_tail.create ~seed ~flows ~alpha () in
      let sizes_equal = ref (Heavy_tail.total_pkts a = Heavy_tail.total_pkts b) in
      for i = 0 to flows - 1 do
        if Heavy_tail.size a i <> Heavy_tail.size b i then sizes_equal := false
      done;
      let ra = Ppp_util.Rng.create ~seed:(seed + 1)
      and rb = Ppp_util.Rng.create ~seed:(seed + 1) in
      let stream_equal = ref true in
      for _ = 1 to 256 do
        if Heavy_tail.sample a ra <> Heavy_tail.sample b rb then
          stream_equal := false
      done;
      !sizes_equal && !stream_equal)

let prop_onoff_duty_cycle =
  QCheck.Test.make ~count:40 ~name:"onoff: duty cycle converges to on/(on+off)"
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let mean_on = clamp 4 192 a and mean_off = clamp 4 192 b in
      let oo = Onoff.create ~mean_on ~mean_off ~burst_flows:4 ~flow_base:1_000_000 () in
      let rng = Ppp_util.Rng.create ~seed:(seed_of mean_on mean_off) in
      let base = Source.make ~fill:(fun _ _ -> Source.Filled) () in
      let src = Onoff.source oo ~rng ~base in
      let p = Ppp_net.Packet.create 128 in
      (* Enough packets for ~2,000 ON/OFF cycles regardless of the means:
         one 500-cycle run's duty cycle has a standard deviation of up to
         0.016, which put 0.05 only 3–4σ out; 2,000 cycles halve it. *)
      let n = 2000 * (mean_on + mean_off) in
      for _ = 1 to n do
        ignore (Source.fill src p)
      done;
      let expected =
        float_of_int mean_on /. float_of_int (mean_on + mean_off)
      in
      Float.abs (Onoff.duty_cycle oo -. expected) < 0.05)

let prop_rss_never_reorders =
  QCheck.Test.make ~count:40 ~name:"steering: RSS never reorders within a flow"
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let cores = clamp 1 8 a and flows = clamp 64 2048 b in
      let seed = seed_of cores flows in
      let ht = Heavy_tail.create ~seed ~flows ~alpha:1.3 () in
      let rng = Ppp_util.Rng.create ~seed:(seed + 1) in
      let st = Steering.create ~migrate_every:64 ~cores Steering.Rss in
      let src = Steering.source st (Heavy_tail.source ht ~rng) in
      let det = Reorder.create () in
      let p = Ppp_net.Packet.create 128 in
      for _ = 1 to 20_000 do
        ignore (Source.fill src p);
        ignore
          (Reorder.observe det ~flow:(Source.last_flow src)
             ~seq:(Source.last_seq src)
            : bool)
      done;
      Reorder.reorders det = 0)

let prop_fdir_reorders_eq_migrations =
  QCheck.Test.make ~count:40
    ~name:"steering: flow-director reorders == migrations"
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let cores = clamp 2 8 a and migrate_every = clamp 16 512 b in
      let seed = seed_of cores migrate_every in
      let ht = Heavy_tail.create ~seed ~flows:1024 ~alpha:1.3 () in
      let rng = Ppp_util.Rng.create ~seed:(seed + 1) in
      let st = Steering.create ~migrate_every ~cores Steering.Flow_director in
      let src = Steering.source st (Heavy_tail.source ht ~rng) in
      let det = Reorder.create () in
      let p = Ppp_net.Packet.create 128 in
      for _ = 1 to 30_000 do
        ignore (Source.fill src p);
        ignore
          (Reorder.observe det ~flow:(Source.last_flow src)
             ~seq:(Source.last_seq src)
            : bool)
      done;
      Steering.migrations st > 0
      && Reorder.reorders det = Steering.migrations st)

let test_reorder_slots_validation () =
  Alcotest.check_raises "non-power-of-two rejected"
    (Invalid_argument "Reorder.create: slots must be a positive power of two")
    (fun () -> ignore (Reorder.create ~slots:100 ()));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Reorder.create: slots must be a positive power of two")
    (fun () -> ignore (Reorder.create ~slots:0 ()))

let test_reorder_eviction_never_false_positive () =
  (* Flows 0 and 8 alias in an 8-slot cache: every observation evicts the
     other flow's state. In-order arrivals must still report zero reorders
     — eviction may only under-count. *)
  let det = Reorder.create ~slots:8 () in
  for seq = 0 to 999 do
    ignore (Reorder.observe det ~flow:0 ~seq : bool);
    ignore (Reorder.observe det ~flow:8 ~seq : bool)
  done;
  Alcotest.(check int) "no false positives under aliasing" 0
    (Reorder.reorders det);
  Alcotest.(check int) "observed all" 2000 (Reorder.observed det);
  (* A genuine inversion on a resident flow is still caught. *)
  Alcotest.(check bool) "observe flags the inversion" true
    (Reorder.observe det ~flow:8 ~seq:0);
  Alcotest.(check int) "real inversion detected" 1 (Reorder.reorders det)

let tests =
  [
    Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf uniform at s=0" `Quick test_zipf_uniform_when_s0;
    Alcotest.test_case "zipf mass monotone" `Quick test_zipf_expected_mass_monotone;
    Alcotest.test_case "gen valid frames" `Quick test_gen_builds_valid_frames;
    Alcotest.test_case "gen rejects short" `Quick test_gen_rejects_short;
    Alcotest.test_case "seeded payload deterministic" `Quick test_seeded_payload_deterministic;
    QCheck_alcotest.to_alcotest prop_zipf_in_range;
    Alcotest.test_case "reorder slots validation" `Quick
      test_reorder_slots_validation;
    Alcotest.test_case "reorder eviction never false-positive" `Quick
      test_reorder_eviction_never_false_positive;
    QCheck_alcotest.to_alcotest prop_heavy_tail_top_mass;
    Alcotest.test_case "heavy_tail: reference matches many-seed means" `Quick
      test_heavy_tail_reference_bias;
    QCheck_alcotest.to_alcotest prop_heavy_tail_determinism;
    QCheck_alcotest.to_alcotest prop_onoff_duty_cycle;
    QCheck_alcotest.to_alcotest prop_rss_never_reorders;
    QCheck_alcotest.to_alcotest prop_fdir_reorders_eq_migrations;
  ]
