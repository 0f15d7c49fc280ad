(** The experiment index: every table/figure of the paper mapped to a
    runnable driver. *)

type t = {
  id : string;  (** e.g. "table1", "fig4" *)
  title : string;
  paper_ref : string;
  run : ?params:Ppp_core.Runner.params -> unit -> Output.t;
      (** [(run ()).text] is the report the goldens pin; [.data] the same
          result as JSON (what [repro run --json] prints). *)
}

val all : t list
val find : string -> t option
val ids : unit -> string list

val envelope : t -> Output.t -> Output.Json.t
(** [envelope e out] is [{id, title, paper_ref, data}]: one experiment's
    structured result under its registry header — what [repro run --json]
    prints per experiment. *)

val to_json : unit -> Output.Json.t
(** Machine-readable registry (the {!envelope} header fields, without
    data) for tooling/CI: what [repro list --json] prints. *)
