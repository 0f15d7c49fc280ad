(* Per-(core, function tag) attribution accumulators for the profiling
   engine.

   Layout: cycles and instructions are flat int arrays indexed [core *
   stride + fn] with [stride = Fn.max_tags], so the engine's profiled op
   path does plain int stores into preallocated rows — no boxing, no
   hashing, no allocation. Latency histograms are the one lazy piece: a
   (core, fn) pair gets its histogram on the first in-window packet that
   touches it. L3 hits and misses are not counted here at all: the window
   counters already tally them per tag, and the engine hands each core's
   window delta over in [set_window].

   Window totals ([cycles]/[instructions]) are bumped only for ops the
   engine executes inside the measurement window, with the same boundary
   convention as the counter snapshots (the op crossing the warmup boundary
   lands in the warm baseline and is excluded; the op crossing the window
   end is included) — so per-tag sums reproduce the window's
   [Counters.diff] exactly.

   Per-packet time uses the [pkt_cycles] scratch row plus a touched stack:
   scratch accumulates over the whole in-flight trace regardless of window
   position (a packet's latency spans the boundary it completes behind),
   and [finish_trace] either records each touched tag's share into its
   latency histogram (packets completing in-window) or just resets the
   scratch (idle traces, out-of-window packets). Every traced op costs at
   least one cycle, so [pkt_cycles > 0] doubles as the touched marker. *)

type t = {
  cores : int;
  stride : int;
  cycles : int array;
  instructions : int array;
  lat : Ppp_util.Histogram.t option array;
  pkt_cycles : int array; (* scratch: in-flight trace's cycles per tag *)
  touched : int array; (* per-core stack of tags with nonzero scratch *)
  ntouched : int array; (* per core: live entries in [touched] *)
  window_start : int array; (* per core, filled in by the engine *)
  window_cycles : int array;
  window_counters : Counters.t array;
}

let create ~cores =
  if cores < 1 then invalid_arg "Attrib.create: cores must be >= 1";
  let stride = Fn.max_tags in
  let n = cores * stride in
  {
    cores;
    stride;
    cycles = Array.make n 0;
    instructions = Array.make n 0;
    lat = Array.make n None;
    pkt_cycles = Array.make n 0;
    touched = Array.make n 0;
    ntouched = Array.make cores 0;
    window_start = Array.make cores 0;
    window_cycles = Array.make cores 0;
    window_counters = Array.make cores (Counters.create ());
  }

(* Shared placeholder threaded through the engine when profiling is off:
   gated behind the hoisted [prof] flag, it is never written. *)
let none = create ~cores:1

let[@inline] op t ~core ~fn ~instrs ~cycles ~in_window =
  let i = (core * t.stride) + fn in
  let c = Array.unsafe_get t.pkt_cycles i in
  if c = 0 then begin
    let n = Array.unsafe_get t.ntouched core in
    Array.unsafe_set t.touched ((core * t.stride) + n) fn;
    Array.unsafe_set t.ntouched core (n + 1)
  end;
  Array.unsafe_set t.pkt_cycles i (c + cycles);
  if in_window then begin
    Array.unsafe_set t.cycles i (Array.unsafe_get t.cycles i + cycles);
    Array.unsafe_set t.instructions i (Array.unsafe_get t.instructions i + instrs)
  end

let finish_trace t ~core ~record =
  let base = core * t.stride in
  let n = t.ntouched.(core) in
  for s = 0 to n - 1 do
    let i = base + t.touched.(base + s) in
    if record then begin
      let h =
        match t.lat.(i) with
        | Some h -> h
        | None ->
            let h = Ppp_util.Histogram.create () in
            t.lat.(i) <- Some h;
            h
      in
      Ppp_util.Histogram.record h t.pkt_cycles.(i)
    end;
    t.pkt_cycles.(i) <- 0
  done;
  t.ntouched.(core) <- 0

let set_window t ~core ~start ~cycles ~counters =
  t.window_start.(core) <- start;
  t.window_cycles.(core) <- cycles;
  t.window_counters.(core) <- counters

let cores t = t.cores
let cycles t ~core ~fn = t.cycles.((core * t.stride) + fn)
let instructions t ~core ~fn = t.instructions.((core * t.stride) + fn)
let l3_hits t ~core ~fn = Counters.fn_l3_hits t.window_counters.(core) fn
let l3_misses t ~core ~fn = Counters.fn_l3_misses t.window_counters.(core) fn
let latency t ~core ~fn = t.lat.((core * t.stride) + fn)
let window_start t ~core = t.window_start.(core)
let window_cycles t ~core = t.window_cycles.(core)
