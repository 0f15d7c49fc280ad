(** Adapter between {!Ppp_hw.Engine}'s sampling probe and {!Timeseries}.

    One sampler instruments one [Engine.run] (one experiment cell). The
    engine is a sequential simulation, so a sampler needs no locking; the
    resulting series are deterministic in content and order.

    Slice boundaries live on the simulated clock: the engine delivers a
    core's sample at the first op that carries its local time across the
    slice edge, whatever burst budget (the [?batch] of [Engine.run]) the run
    uses —
    bursts are bounded by the next pending boundary, so batching never
    moves, merges or drops a sample. *)

type t

val create : cell:string -> sample_cycles:int -> t

val probe : t -> Ppp_hw.Engine.probe
(** The probe to pass as the [?probe] of [Engine.run]. *)

val series : t -> experiment:string -> freq_hz:float -> Timeseries.t list
(** The collected series, one per sampled core, sorted by core. *)
