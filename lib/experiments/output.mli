(** Structured experiment output.

    Every driver returns both its human-readable report and the same result
    as a JSON document, so [repro run --json] and tooling never have to
    re-parse the aligned tables. The [text] is exactly what the golden
    snapshots pin down; [data] is built from the driver's measured record
    (numbers stay numbers — fractions are not pre-formatted into percent
    strings). Both renderings of a result table read one list of {!col}s,
    so a column shown in both is declared once. *)

module Json = Ppp_telemetry.Json

type t = {
  text : string;  (** the rendered report, unchanged from the text-only era *)
  data : Json.t;  (** the measurement behind it, machine-readable *)
}

val make : text:string -> data:Json.t -> t

(** {1 Formats} *)

type 'a fmt
(** How a value becomes a JSON value and a table cell. *)

val str : string fmt
val int : int fmt
val bool : bool fmt

val kind : Ppp_apps.App.kind fmt
(** A flow type, by its name. *)

val num : (float -> string) -> float fmt
(** A JSON number, printed with the given function. *)

val pct : float fmt
(** A fraction: printed as a percentage with 2 decimals ("27.00" for 0.27). *)

val millions : float fmt
(** Printed in millions with 1 decimal ("25.9" for 25.85e6). *)

val f0 : float fmt
(** Printed with no decimals. *)

val f2 : float fmt
(** Printed with 2 decimals. *)

val show : 'a fmt -> 'a -> string
(** The text of one value, for prose around a table. *)

(** {1 Columns} *)

type 'row col
(** One column of a result table: how to read its value out of a row, and
    where it appears. *)

val col : string -> string -> 'a fmt -> ('row -> 'a) -> 'row col
(** [col key header fmt get]: in both renderings, as JSON key [key] and
    text header [header]. *)

val json_col : string -> 'a fmt -> ('row -> 'a) -> 'row col
(** In the JSON rendering only. *)

val text_col : string -> ('row -> string) -> 'row col
(** In the text rendering only, with its cell text. *)

val row : 'row col list -> 'row -> Json.t
(** One row as an object, keys in column order. *)

val table : 'row col list -> 'row list -> Json.t
(** Rows as an array of {!row} objects. *)

val text_table : title:string -> 'row col list -> 'row list -> string
(** The aligned text table ({!Ppp_util.Table}) of the text columns. *)
