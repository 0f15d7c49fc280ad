(** The multicore interleaving engine.

    Each participating core owns a stream of per-packet traces produced by
    its flow. The engine repeatedly advances the core with the smallest local
    clock by one operation, so the reference streams of co-running flows
    interleave in simulated-time order through the shared {!Hierarchy} —
    faithfully reproducing inter-core cache and memory-controller contention.

    Measurements are taken over a window: every core runs through a warmup
    period (caches fill, queues reach steady state), then statistics are the
    counter deltas between the window boundaries. All cores keep executing
    until the slowest one has crossed the window end, so competition is
    present throughout every core's measured interval. *)

type item =
  | Packet of Trace.t  (** work for one packet; completion counts a packet *)
  | Idle of Trace.t  (** stall/bookkeeping ops that do not complete a packet *)
  | Reordered of Trace.t
      (** a packet like [Packet], whose arrival the source's reorder
          detector flagged as a sequence inversion: its latency is
          additionally recorded in the [reordered] histogram column *)

type source = int -> item
(** Called with the core's current cycle whenever the core finished its
    previous item (the cycle argument is how a control element measures its
    own rate, like reading the TSC). Must not return an empty trace (the
    engine raises [Invalid_argument] to avoid a live-lock). *)

type flow = { core : int; label : string; source : source }

type sample = {
  s_core : int;  (** core the slice was measured on *)
  s_flow : string;  (** the flow's label *)
  s_start : int;  (** slice start (simulated cycles, absolute) *)
  s_end : int;  (** slice end; slices of one core are contiguous *)
  s_packets : int;  (** packets completed inside the slice *)
  s_delta : Counters.t;  (** counter delta over the slice *)
  s_latency : Ppp_util.Histogram.t;
      (** latency of the packets completing inside the slice *)
}
(** One time slice of a core's measurement window. Successive slices of a
    core telescope: each delta is taken between consecutive snapshots of
    the same counters, so summing every slice of a core reproduces the
    window's {!Counters.diff} (and window packet count) exactly. *)

type probe = {
  sample_cycles : int;
      (** nominal slice length; boundaries sit on the grid
          [warmup + i * sample_cycles] of simulated time. A slice closes at
          the first operation completion at-or-past a boundary, so actual
          ends jitter by at most one operation. Must be >= 1. *)
  on_sample : sample -> unit;
      (** called in deterministic simulated-time order: the engine is a
          sequential interleaving simulation, so for a fixed run the calls
          and their contents never depend on wall-clock or job count. *)
}
(** A time-sliced counter sampler — the simulator's analogue of running
    Oprofile with a sampling period, feeding the telemetry layer. *)

type result = {
  core : int;
  label : string;
  packets : int;  (** packets completed within the measurement window *)
  window_cycles : int;
  throughput_pps : float;  (** packets per simulated second *)
  counters : Counters.t;  (** counter delta over the window *)
  l3_refs_per_sec : float;
  l3_hits_per_sec : float;
  latency : Ppp_util.Histogram.t;
      (** per-packet processing latency (cycles), packets completed within
          the window *)
  latency_inorder : Ppp_util.Histogram.t;
      (** the subset of [latency] from packets delivered in order *)
  latency_reordered : Ppp_util.Histogram.t;
      (** the subset of [latency] from packets flagged {!Reordered} by the
          source; [latency_inorder] and [latency_reordered] partition
          [latency] exactly *)
  engine_ops : int;
      (** trace operations the engine replayed for this core over the whole
          run, warmup included — the simulator's own work, the
          denominator of host cost per op *)
}

val run :
  ?probe:probe ->
  ?attrib:Attrib.t ->
  ?batch:int ->
  Hierarchy.t -> flows:flow list -> warmup_cycles:int -> measure_cycles:int ->
  result list
(** Runs the given flows (each on a distinct core; checked) and returns one
    result per flow, in input order. When [probe] is given, every core's
    measurement window is additionally delivered as contiguous time slices
    through [probe.on_sample]; sampling does not perturb the simulation.

    When [attrib] is given, every replayed op's cycles and instructions
    are attributed to its function tag ({!Trace.raw_fn}) in the given
    accumulators (window-gated with the exact counter-snapshot boundary
    semantics), each in-window packet's per-tag time is recorded into the
    per-(core, tag) latency histograms, and each core's window counter
    delta — whose per-tag L3 tallies are the profile's L3 columns — is
    handed over when the window closes. Attribution reads the simulation
    but never perturbs it: every op makes the same single
    {!Hierarchy.access} call either way, results are byte-identical with
    and without [attrib], and without it the op path pays a single hoisted
    branch (still allocation-free — the [alloc] test suite pins both).

    [batch] (default 32; must be >= 1) caps how many trace operations the
    scheduled core executes per scheduling decision. The engine bursts the
    least-advanced core up to its run-ahead horizon — the first simulated
    time at which any other core would win the (time, index) order — so the
    interleaving is exactly the per-op schedule no matter the cap: every
    result, probe sample and source call is byte-identical for every
    [batch] value. Larger batches only amortize the scheduler and state
    write-back over more ops. *)
