module Json = Ppp_telemetry.Json

type t = { text : string; data : Json.t }

let make ~text ~data = { text; data }

type 'a fmt = { to_json : 'a -> Json.t; to_text : 'a -> string }

let str = { to_json = (fun s -> Json.Str s); to_text = Fun.id }
let int = { to_json = (fun n -> Json.Int n); to_text = string_of_int }
let bool = { to_json = (fun b -> Json.Bool b); to_text = string_of_bool }

let kind =
  {
    to_json = (fun k -> Json.Str (Ppp_apps.App.name k));
    to_text = Ppp_apps.App.name;
  }

let num to_text = { to_json = (fun x -> Json.Float x); to_text }
let pct = num Ppp_util.Table.cell_pct
let millions = num (fun x -> Printf.sprintf "%.1f" (x /. 1e6))
let f0 = num (Printf.sprintf "%.0f")
let f2 = num (Printf.sprintf "%.2f")
let show fmt x = fmt.to_text x

type 'row col = {
  json : (string * ('row -> Json.t)) option; (* JSON key and value *)
  cell : (string * ('row -> string)) option; (* text header and cell *)
}

let col key header fmt get =
  {
    json = Some (key, fun r -> fmt.to_json (get r));
    cell = Some (header, fun r -> fmt.to_text (get r));
  }

let json_col key fmt get =
  { json = Some (key, fun r -> fmt.to_json (get r)); cell = None }

let text_col header cell = { json = None; cell = Some (header, cell) }

let row cols r =
  Json.Obj
    (List.filter_map (fun c -> Option.map (fun (k, v) -> (k, v r)) c.json) cols)

let table cols rs = Json.Arr (List.map (row cols) rs)

let text_table ~title cols rs =
  let cells = List.filter_map (fun c -> c.cell) cols in
  let t = Ppp_util.Table.create ~title (List.map fst cells) in
  List.iter
    (fun r -> Ppp_util.Table.add_row t (List.map (fun (_, f) -> f r) cells))
    rs;
  Ppp_util.Table.to_string t
