(** Domain-parallel fan-out for independent experiment cells.

    Every registered experiment is a set of independent simulation cells
    (one [Runner.run] per cell), each seeded purely from
    [(experiment, cell, seed)] via {!Ppp_util.Rng.derive}. [map] fans the
    cells out across a bounded pool of OCaml 5 domains and reassembles
    results in input order, so output is byte-identical to a sequential
    run regardless of the job count. *)

val set_jobs : int -> unit
(** Bound the pool: [set_jobs 0] restores the default (physical cores);
    [set_jobs 1] forces sequential execution. Wired to [--jobs]/[-j]. *)

val configured_jobs : unit -> int
(** The last value passed to {!set_jobs} (0 = auto). *)

val jobs : unit -> int
(** The effective pool size: the configured value, or else the machine's
    recommended domain count (physical cores). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, possibly in parallel, and
    returns results in input order. [f] must not share mutable state
    across elements. Calls from inside a worker run sequentially (no
    nested pools). If any [f x] raises, the exception of the lowest
    index is re-raised after the pool drains. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [map] with the element's index, e.g. for per-cell seed derivation.

    When {!Ppp_telemetry.Recorder.spans_enabled}, every pooled work item
    additionally records a wall-clock span (queue wait + run time, owning
    domain) into the telemetry recorder. *)
