(** Experiment harness: place flows on cores and NUMA nodes, run them to a
    steady state, and report per-flow results.

    This encodes the measurement methodology of Section 3: a run has a warmup
    period and a measurement window; the contention-induced performance drop
    of a flow is (tau_s - tau_c) / tau_s against its solo throughput under
    identical placement. *)

type spec = {
  kind : Ppp_apps.App.kind;
  core : int;
  data_node : int;
      (** NUMA node holding every data structure of this flow. The paper's
          Figure 3 configurations are expressed here: local data =
          socket of [core]; remote data = the other node. *)
}

val flow_on : node:int -> core:int -> Ppp_apps.App.kind -> spec
(** [flow_on ~node ~core kind] runs [kind] on [core] with its data on NUMA
    node [node]: local data is the socket of [core] on the machine that
    runs the spec ({!Ppp_hw.Topology.socket_of_core}). *)

type params = {
  config : Ppp_hw.Machine.config;
  seed : int;
  warmup_cycles : int;
  measure_cycles : int;
  batch : int;
      (** Engine burst budget: how many trace ops a scheduled core may retire
          per scheduling decision (the [?batch] of [Engine.run]). A pure
          execution knob — results are byte-identical for every value >= 1. *)
  cell : string;
      (** Telemetry label of the experiment cell this run belongs to
          (e.g. "pair/IP/MON"); "" for unlabeled ad-hoc runs. Only consumed
          by the telemetry layer — it never influences the simulation. *)
  profile : bool;
      (** When true, the run attributes cycles / instructions / L3 events /
          latency to (core, function tag) and records the profile into the
          {!Ppp_telemetry.Recorder} under [params.cell]. Pure observation:
          results are byte-identical with it on or off. *)
}

(** Builder-style construction: pipe {!Params.default} (or
    {!Params.quick}) through [with_*] setters instead of writing the
    record literal, so adding a knob never breaks existing call sites:

    {[ Runner.Params.(default |> with_batch 8 |> with_seed 7) ]} *)
module Params : sig
  type t = params

  val default : t
  (** scaled machine, seed 42, 3M cycles warmup, 10M measured, batch 32;
      every [?params] argument defaults to it. *)

  val quick : t
  (** The tiny machine with 0.3M cycles warmup and 1M measured. *)

  val with_config : Ppp_hw.Machine.config -> t -> t
  val with_seed : int -> t -> t

  val with_windows : warmup:int -> measure:int -> t -> t
  (** Warmup / measurement window lengths, in cycles. *)

  val with_batch : int -> t -> t
  val with_cell : string -> t -> t
  (** Sets only the telemetry [cell] label, leaving the seed untouched
      (unlike {!cell_params}) — for cells that predate telemetry and must
      keep their historical streams (changing their seed would invalidate
      every golden snapshot). *)

  val with_profile : bool -> t -> t

  val sample_cycles : t -> int
  (** The default slice of a sampled window: [max 1 (measure_cycles / 20)],
      twenty slices per window. The contention monitor's epoch and
      [repro --sample-cycles 0] both use it. *)

  val validate : t -> (unit, string) result
  (** [Ok ()] iff the windows and the burst budget can be run: warmup >= 0,
      measure >= 1 and batch >= 1. A negative warmup would otherwise run
      silently. A valid window may still complete no packet; {!drop}
      rejects such a solo baseline, and {!per_packet} any per-packet
      figure of it. The error is one line naming the bad
      value, e.g. ["measurement window must be >= 1 cycle, got 0"]. *)
end

val run_with :
  ?params:params ->
  ?probe:Ppp_hw.Engine.probe ->
  (Ppp_hw.Hierarchy.t -> heaps:Ppp_simmem.Heap.t array -> rng:Ppp_util.Rng.t ->
   Ppp_hw.Engine.flow list * 'a) ->
  Ppp_hw.Engine.result list * 'a
(** The one way a simulation is set up, observed and run. Builds a fresh
    machine for [params.config], one heap per NUMA node and the root
    generator [Rng.create ~seed:params.seed]; asks the builder for the engine
    flows (plus any state ['a] the caller reads after the run, such as a
    fast path's counters); runs them for the warmup and measurement windows;
    and returns the results in flow order with that state. The builder owns
    the stream: it splits [rng] and allocates on [heaps] in whatever order
    its simulation needs.

    Raises [Invalid_argument] with the {!Params.validate} message before
    building anything when [params] are not runnable, and
    ["Runner.run: no flows"] or ["Runner.run: core out of range"] when the
    builder's flows are empty or name a core the machine lacks.

    Observation never changes the results. When the
    {!Ppp_telemetry.Recorder} is configured, the run feeds it a per-core
    simulated-time counter series and a wall-clock span, both tagged with
    [params.cell] (the span's args: the seed, the flow count, the machine's
    name and a digest of its {!Ppp_hw.Costs.t}); with [params.profile] it
    records the per-tag profile under the same cell. [?probe] is teed with
    the telemetry sampler (the engine takes a single probe): both receive
    every sample, and the sampler records this cell on the probe's slice
    grid ([probe.sample_cycles]) instead of the recorder's sampling period.
    This is how the contention monitor observes a run without a second
    simulation. *)

val spec_flows :
  params:params ->
  spec list ->
  Ppp_hw.Hierarchy.t ->
  heaps:Ppp_simmem.Heap.t array ->
  rng:Ppp_util.Rng.t ->
  Ppp_hw.Engine.flow list
(** The {!run_with} builder of {!run}: one {!Ppp_apps.App.flow} per spec, in
    spec order, on its [data_node]'s heap, each from its own [Rng.split rng]
    and labelled with the kind's name. Raises
    ["Runner.run: node out of range"] for a node the machine lacks. *)

val run :
  ?params:params -> ?probe:Ppp_hw.Engine.probe -> spec list ->
  Ppp_hw.Engine.result list
(** [run_with] over [spec_flows specs]: places each spec as a flow, runs,
    and returns results in spec order. *)

val cell_params : params -> string -> params
(** [cell_params p label] is [p] with its seed replaced by
    [Rng.derive ~seed:p.seed label] and its telemetry [cell] set to
    [label]: the per-cell parameters of one independent experiment cell.
    Deriving each cell's stream from a label (instead of splitting a shared
    generator) keeps cells order-independent, so {!Parallel.map} over cells
    is byte-identical to a sequential loop. *)

val solo : ?params:params -> Ppp_apps.App.kind -> Ppp_hw.Engine.result
(** The kind alone on core 0, data local. Seeded from
    [cell_params params ("solo/" ^ name kind)], making the solo baseline of
    a kind identical wherever it is computed. *)

val drop : solo:Ppp_hw.Engine.result -> corun:Ppp_hw.Engine.result -> float
(** Fractional contention-induced drop, >= -epsilon in practice. Raises
    [Invalid_argument] when [solo] completed no packet in its window (a
    window that {!Params.validate} accepts can still be too short for one
    packet), instead of returning NaN. *)

val per_packet : int -> packets:int -> float
(** [per_packet n ~packets] is [n] per packet over a measurement window.
    Raises [Invalid_argument] when [packets] is 0: a window that completed
    no packet has no per-packet figures, and reporting one would read an
    empty measurement as a result. *)

val competing_refs_per_sec :
  Ppp_hw.Engine.result list -> target:Ppp_hw.Engine.result -> float
(** Sum of the other flows' measured L3 refs/sec (the paper's "competing
    references"). *)
