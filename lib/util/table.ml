type t = {
  title : string option;
  headers : string array;
  mutable rows : string array list; (* reversed *)
}

let create ?title headers =
  let headers = Array.of_list headers in
  if Array.length headers = 0 then invalid_arg "Table.create: no columns";
  { title; headers; rows = [] }

let add_row t cells =
  let row = Array.of_list cells in
  if Array.length row <> Array.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s

let to_string t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  List.iter
    (fun row ->
      Array.iteri (fun i c -> widths.(i) <- Int.max widths.(i) (String.length c)) row)
    rows;
  let buf = Buffer.create 1024 in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  let emit_row cells =
    for i = 0 to ncols - 1 do
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (pad ~left:(i = 0) widths.(i) cells.(i))
    done;
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  let total = Array.fold_left ( + ) (2 * (ncols - 1)) widths in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print t = print_string (to_string t)
let cell_pct x = Printf.sprintf "%.2f" (100.0 *. x)
let cell_millions x = Printf.sprintf "%.2f" (x /. 1e6)
