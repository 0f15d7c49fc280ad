(** Aligned plain-text tables for experiment output (paper-style rows). *)

type t

val create : ?title:string -> string list -> t
(** [create ~title headers] starts a table with the given column headers.
    The first column is left-aligned, the others right-aligned. *)

val add_row : t -> string list -> unit
(** Row length must match the header length. *)

val to_string : t -> string
val print : t -> unit

val cell_pct : float -> string
(** Format a fraction as a percentage with 2 decimals, e.g. [0.27] -> "27.00". *)

val cell_millions : float -> string
(** Format a count as millions with 2 decimals. *)
