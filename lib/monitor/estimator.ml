type rates = {
  t_start : int;
  t_end : int;
  packets : int;
  pps : float;
  l3_refs_per_sec : float;
  l3_hits_per_sec : float;
  mem_refs_per_sec : float;
  p50_latency : int;
  p99_latency : int;
  ewma_pps : float;
  ewma_l3_refs_per_sec : float;
}

type t = {
  alpha : float;
  freq_hz : float;
  mutable slices : int;
  mutable e_pps : float;
  mutable e_l3 : float;
}

let create ~alpha ~freq_hz =
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Estimator.create: alpha must be in (0, 1]";
  if not (freq_hz > 0.0) then invalid_arg "Estimator.create: freq_hz <= 0";
  { alpha; freq_hz; slices = 0; e_pps = 0.0; e_l3 = 0.0 }

let push t (s : Ppp_hw.Engine.sample) =
  let cycles = s.Ppp_hw.Engine.s_end - s.Ppp_hw.Engine.s_start in
  if cycles <= 0 then invalid_arg "Estimator.push: empty slice";
  let per_sec count = float_of_int count /. float_of_int cycles *. t.freq_hz in
  let d = s.Ppp_hw.Engine.s_delta in
  let pps = per_sec s.Ppp_hw.Engine.s_packets in
  let l3 = per_sec (Ppp_hw.Counters.l3_refs d) in
  (* The first slice seeds the EWMA at its own value: a warm start avoids the
     spurious ramp-up a zero seed would show for 1/alpha slices. *)
  let mix prev v = if t.slices = 0 then v else ((1.0 -. t.alpha) *. prev) +. (t.alpha *. v) in
  t.e_pps <- mix t.e_pps pps;
  t.e_l3 <- mix t.e_l3 l3;
  t.slices <- t.slices + 1;
  let lat = s.Ppp_hw.Engine.s_latency in
  {
    t_start = s.Ppp_hw.Engine.s_start;
    t_end = s.Ppp_hw.Engine.s_end;
    packets = s.Ppp_hw.Engine.s_packets;
    pps;
    l3_refs_per_sec = l3;
    l3_hits_per_sec = per_sec (Ppp_hw.Counters.l3_hits d);
    mem_refs_per_sec = per_sec (Ppp_hw.Counters.mem_refs d);
    p50_latency = Ppp_util.Histogram.percentile lat 50.0;
    p99_latency = Ppp_util.Histogram.percentile lat 99.0;
    ewma_pps = t.e_pps;
    ewma_l3_refs_per_sec = t.e_l3;
  }
