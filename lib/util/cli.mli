(** Minimal command-line parsing for the repo's binaries.

    A [t] accumulates option specs ([flag], [int], [string], ...), each of
    which returns a ref that [parse] fills in. Options are matched by any of
    their registered names ([["--jobs"; "-j"]]) and values may be attached
    ([--jobs=4]) or separate ([--jobs 4]). Everything that is not an option
    is collected, in order, as a positional argument.

    [--help] (or [-h]) prints the generated usage text and exits 0.
    Malformed input (unknown option, missing or non-integer value) prints a
    one-line error to stderr, prefixed with the usage line ([prog]), and
    exits 2. *)

type t

val create : prog:string -> summary:string -> t
(** [prog] is what the usage line shows (e.g. ["repro run"]). *)

val flag : t -> string list -> doc:string -> bool ref
(** A boolean switch; [!r] is true iff present. *)

val int : t -> string list -> docv:string -> doc:string -> int -> int ref
(** An integer option with a default. *)

val string : t -> string list -> docv:string -> doc:string -> string -> string ref
(** A string option with a default. *)

val opt_string : t -> string list -> docv:string -> doc:string -> string option ref
(** A string option that records whether it was given at all. *)

val parse : t -> ?start:int -> string array -> string list
(** Parse [argv] from index [start] (default 1); returns the positional
    arguments in order. Exits on [--help] or malformed input as described
    above. *)

val die : t -> string -> 'a
(** Print ["prog: msg"] as one line to stderr, exit 2. For the caller's own
    validation (unknown subcommand, bad positional argument, out-of-range
    value, ...). *)
