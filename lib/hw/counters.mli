(** Per-core hardware performance counters (the simulator's Oprofile).

    Tracks the quantities Table 1 of the paper reports — instructions,
    cycles, L2 hits, L3 references/hits/misses — plus per-function L3
    behaviour for the Figure 7 breakdown. Snapshots and diffs support
    measuring over a warm window only. *)

type t

val create : unit -> t
val copy : t -> t

val diff : t -> t -> t
(** [diff later earlier] is the counter delta over a window. *)

val equal : t -> t -> bool
(** Structural equality over every counter, including the per-function
    breakdowns (used by the telemetry conservation tests). *)

(* Recording (used by the hierarchy and engine). *)
val add_instructions : t -> int -> unit
val add_l1_hit : t -> Fn.t -> unit
val add_l2_hit : t -> Fn.t -> unit
val add_l3_hit : t -> Fn.t -> unit
val add_l3_miss : t -> Fn.t -> unit
val add_read : t -> unit
val add_write : t -> unit
val add_packet : t -> unit

val add_packets : t -> int -> unit
(** Batched {!add_packet}: how the engine flushes its hoisted per-core
    packet count at slice boundaries. *)

(* Readout. *)
val instructions : t -> int
val l1_hits : t -> int
val l2_hits : t -> int
val l3_hits : t -> int
val l3_misses : t -> int

val l3_refs : t -> int
(** References that reached the L3, i.e. hits + misses. *)

val mem_refs : t -> int
(** All loads + stores issued. *)

val reads : t -> int
val writes : t -> int
val packets : t -> int

val fn_l3_refs : t -> Fn.t -> int
val fn_l3_hits : t -> Fn.t -> int
val fn_l3_misses : t -> Fn.t -> int
val fn_refs : t -> Fn.t -> int
