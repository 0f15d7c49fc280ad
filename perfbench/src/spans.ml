(* In-memory spans around the calls the benchmark makes into each layer.
   Nothing is written until the run ends; then the spans become a
   trace-event JSON file (loadable in Perfetto or chrome://tracing) and a
   self-time table.

   Layers called millions of times (a flow's trace source, the hierarchy)
   are not spanned per call. Their time is summed and added as one
   [aggregate] child of the engine span, so self time still adds up. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  cat : string;
  start_ns : int;
  dur_ns : int;
  args : (string * string) list;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
}

let create () = { spans = []; next_id = 1; stack = [] }
let current t = match t.stack with id :: _ -> id | [] -> 0

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t ?parent ?(args = []) ~cat ~name ~start_ns ~dur_ns () =
  let parent = Option.value parent ~default:(current t) in
  t.spans <- { id = fresh t; parent; name; cat; start_ns; dur_ns; args } :: t.spans

(* [with_span t ~cat name f] runs [f id] inside a span; [id] lets [f]
   attach children recorded elsewhere (the runner's spans). *)
let with_span t ?(args = []) ~cat name f =
  let id = fresh t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let t0 = Clock.now_ns () in
  let close () =
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; parent; name; cat; start_ns = t0; dur_ns = Clock.now_ns () - t0; args }
      :: t.spans
  in
  match f id with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

(* Optional tracing: a no-op when there is no tracer. *)
let opt tracer ?args ~cat name f =
  match tracer with
  | Some t -> with_span t ?args ~cat name (fun _ -> f ())
  | None -> f ()

let spans t = List.rev t.spans

type row = { r_cat : string; r_name : string; count : int; total_ns : int; self_ns : int }

(* A span's self time is its duration minus its children's. Spans are
   grouped by (category, name) and sorted by self time, largest first. *)
let self_table t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt children s.parent) ~default:0 in
      Hashtbl.replace children s.parent (prev + s.dur_ns))
    t.spans;
  let rows = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = s.dur_ns - Option.value (Hashtbl.find_opt children s.id) ~default:0 in
      let key = (s.cat, s.name) in
      let c, tot, sf = Option.value (Hashtbl.find_opt rows key) ~default:(0, 0, 0) in
      Hashtbl.replace rows key (c + 1, tot + s.dur_ns, sf + self))
    t.spans;
  Hashtbl.fold
    (fun (r_cat, r_name) (count, total_ns, self_ns) acc ->
      { r_cat; r_name; count; total_ns; self_ns } :: acc)
    rows []
  |> List.sort (fun a b -> compare (b.self_ns, a.r_name) (a.self_ns, b.r_name))

let print_self_table oc t =
  let rows = self_table t in
  let total = List.fold_left (fun acc r -> acc + r.self_ns) 0 rows in
  Printf.fprintf oc "%-12s %-28s %8s %12s %12s %7s\n" "layer" "span" "count"
    "total_ms" "self_ms" "self%";
  List.iter
    (fun r ->
      Printf.fprintf oc "%-12s %-28s %8d %12.3f %12.3f %6.1f%%\n" r.r_cat r.r_name
        r.count
        (float_of_int r.total_ns *. 1e-6)
        (float_of_int r.self_ns *. 1e-6)
        (100.0 *. float_of_int r.self_ns /. float_of_int (max 1 total)))
    rows

let json_str s = Ppp_telemetry.Json.to_string (Ppp_telemetry.Json.Str s)

(* Trace-event format: complete ("X") events, microsecond timestamps from
   the first span, parent ids kept in args so the tree survives export. *)
let write_trace path ~meta t =
  let spans = spans t in
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  let oc = open_out path in
  Printf.fprintf oc "{\"displayTimeUnit\":\"ms\",\"otherData\":{%s},\"traceEvents\":[\n"
    (String.concat ","
       (List.map (fun (k, v) -> json_str k ^ ":" ^ json_str v) meta));
  List.iteri
    (fun i s ->
      let args =
        ("id", string_of_int s.id) :: ("parent", string_of_int s.parent) :: s.args
      in
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        (if i = 0 then "" else ",\n")
        (json_str s.name) (json_str s.cat)
        (float_of_int (s.start_ns - origin) /. 1e3)
        (float_of_int s.dur_ns /. 1e3)
        (String.concat ","
           (List.map (fun (k, v) -> json_str k ^ ":" ^ json_str v) args)))
    spans;
  output_string oc "\n]}\n";
  close_out oc
