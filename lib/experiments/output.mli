(** Structured experiment output.

    Every driver returns both its human-readable report and the same result
    as a JSON document, so [repro run --json] and tooling never have to
    re-parse the aligned tables. The [text] is exactly what the golden
    snapshots pin down; [data] is built from the driver's measured record
    (numbers stay numbers — fractions are not pre-formatted into percent
    strings). *)

module Json = Ppp_telemetry.Json

type t = {
  text : string;  (** the rendered report, unchanged from the text-only era *)
  data : Json.t;  (** the measurement behind it, machine-readable *)
}

val make : text:string -> data:Json.t -> t

(** Typed table builder: declare each column once (name + how to read its
    value out of a row) and apply it to the row list. *)
module Col : sig
  type 'row t

  val str : string -> ('row -> string) -> 'row t
  val int : string -> ('row -> int) -> 'row t
  val num : string -> ('row -> float) -> 'row t
  val bool : string -> ('row -> bool) -> 'row t
end

val table : ?title:string -> 'row Col.t list -> 'row list -> Json.t
(** Rows as an array of objects, keys in column order; with [?title],
    wrapped as [{"title": ..., "rows": [...]}]. *)
