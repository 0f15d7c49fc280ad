(** Discrete observability events on the simulated clock.

    Where {!Timeseries} carries periodic counter slices, an event marks a
    point in simulated time where an interpretation layer (the contention
    monitor) concluded something: a flow degraded beyond its prediction, a
    hidden aggressor crossed its profiled rate, a throttled flow recovered.
    Events are keyed by simulated cycles, so for a fixed seed and machine
    they are byte-deterministic regardless of job count — they export into
    the deterministic subset of the Chrome trace (instant events) and into
    the manifest's [alerts] section. *)

type t = {
  experiment : string;  (** experiment id, "" for ad-hoc runs *)
  cell : string;  (** cell label, e.g. "monitor/loud" *)
  t_cycles : int;  (** simulated time the event fired (slice end) *)
  core : int;  (** core of the flow the event is about *)
  flow : string;  (** the flow's label *)
  name : string;  (** event kind, e.g. "Hidden_aggressor" *)
  args : (string * Json.t) list;  (** structured payload *)
}

val compare : t -> t -> int
(** Total order on (experiment, cell, t_cycles, core, ...): deterministic
    for a fixed simulation regardless of insertion order. *)
