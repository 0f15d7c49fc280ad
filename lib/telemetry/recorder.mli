(** The process-global telemetry collector.

    Instrumentation points ({!Ppp_core.Runner}, [Ppp_core.Parallel], the
    CLIs) are scattered across layers and worker domains, so collection
    goes through one mutex-protected global sink. Telemetry is off by
    default (every hook is a cheap no-op); the CLIs call {!configure} when
    the user asks for [--trace]/[--metrics].

    Reads return deterministically ordered data: series are sorted with
    {!Timeseries.compare} regardless of the (parallel, hence racy)
    insertion order; spans are wall-clock and sorted by start time. *)

type experiment_entry = {
  exp_id : string;
  exp_title : string;
  exp_paper_ref : string;
  wall_s : float;  (** wall-clock duration — nondeterministic *)
  exp_data : Json.t;  (** the experiment's structured result ([Output.data]) *)
}

type profile_entry = {
  pr_cell : string;  (** experiment cell label, e.g. "fig2/ip" *)
  pr_core : int;
  pr_flow : string;  (** label of the flow running on [pr_core] *)
  pr_elem : string;
      (** the row: a function tag's name ({!Ppp_hw.Fn.name}), one per
          element class or driver stage *)
  pr_cycles : int;  (** cycles retired under this tag (window only) *)
  pr_instructions : int;
  pr_l3_hits : int;
  pr_l3_misses : int;
  pr_packets : int;  (** packets whose latency was attributed here *)
  pr_lat_p50 : int;  (** per-packet cycles spent under this tag *)
  pr_lat_p90 : int;
  pr_lat_p99 : int;
  pr_lat_p999 : int;
  pr_window_start : int;  (** core's measurement-window start (cycles) *)
  pr_window_cycles : int;  (** core's measurement-window length (cycles) *)
}

val configure : ?sample_cycles:int -> ?spans:bool -> unit -> unit
(** Turns collection on. [sample_cycles] enables counter sampling at that
    slice length (in simulated cycles); [spans] enables wall-clock span
    collection. Raises [Invalid_argument] on [sample_cycles < 1]. *)

val reset : unit -> unit
(** Back to the disabled state, dropping configuration and all data. *)

val clear_data : unit -> unit
(** Drops collected data but keeps the configuration (between repeated
    runs in tests). *)

val sampling : unit -> int option
(** The configured slice length, when sampling is on. *)

val spans_enabled : unit -> bool

val set_experiment : string -> unit
(** Labels subsequently collected series with this experiment id. Set from
    the main domain between experiment runs; worker domains read it. *)

val current_experiment : unit -> string

val add_series : Timeseries.t list -> unit
(** Thread-safe; tags each series with {!current_experiment}. *)

val add_span : Span.t -> unit
(** Thread-safe. *)

val add_events : Event.t list -> unit
(** Thread-safe; events whose [experiment] field is empty are tagged with
    {!current_experiment}. *)

val record_experiment :
  id:string ->
  title:string ->
  paper_ref:string ->
  wall_s:float ->
  data:Json.t ->
  unit
(** Appends a manifest entry for a completed experiment, carrying its
    structured result (always recorded, even when telemetry is off — the
    result is already built and the CLIs decide later whether a manifest is
    written). *)

val series : unit -> Timeseries.t list
(** Sorted with {!Timeseries.compare} — deterministic for a fixed seed and
    machine regardless of job count. *)

val spans : unit -> Span.t list
(** Sorted by (start, name); wall-clock, nondeterministic. *)

val events : unit -> Event.t list
(** Sorted with {!Event.compare} — simulated-time, deterministic for a
    fixed seed and machine regardless of job count. *)

val experiments : unit -> experiment_entry list
(** In completion order (experiments run sequentially from the main
    domain, so this order is the CLI invocation order). *)

val add_profile : profile_entry list -> unit
(** Thread-safe; always recorded (like {!record_experiment}). *)

val profile : unit -> profile_entry list
(** Sorted by (cell, core, elem). Rows are tag names, so this order — and
    the entries themselves — are deterministic regardless of [--jobs]. *)
