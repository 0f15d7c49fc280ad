(** Extension: per-packet latency under contention.

    The paper evaluates throughput; operators also care about tails. The
    engine records each packet's processing latency, and this experiment
    shows that cache contention inflates the tail (p99) disproportionately
    to the median — converted misses cluster on unlucky packets. *)

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
