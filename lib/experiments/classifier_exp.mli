(** Extension: the fast-path/slow-path split under contention.

    A flow-table fast path ({!Ppp_classify.Flow_table}) fronts a slow-path
    classifier (tuple-space search or range index) over a structured rule
    set; misses upcall, classify, and install megaflows. The experiment
    sweeps backend × rule-set size × traffic skew and reports the cache
    economics (hit rate, upcalls per packet) together with the fig2-style
    contention story: each configuration's sensitivity (drop vs solo under
    SYN_MAX co-runners) and aggressiveness (its own L3 refs/sec). *)

type cell = {
  backend : string;  (** "tss" | "range" *)
  rules : int;
  skew : float;  (** Zipf exponent of the flow popularity distribution *)
  hit_rate : float;
  upcalls_per_packet : float;
  lookups : int;  (** fast-path probes = hits + upcalls (solo run) *)
  hits : int;
  upcalls : int;
  installs : int;  (** megaflows installed after upcalls *)
  evictions : int;
  solo_pps : float;
  drop : float;  (** contention-induced drop vs 5 SYN_MAX *)
  l3_refs_per_sec : float;  (** solo aggressiveness *)
}

type data = { cells : cell list }

val measure : ?params:Ppp_core.Runner.params -> unit -> data
val data_json : data -> Output.Json.t
val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
