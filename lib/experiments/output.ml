module Json = Ppp_telemetry.Json

type t = { text : string; data : Json.t }

let make ~text ~data = { text; data }

module Col = struct
  type 'row t = { name : string; cell : 'row -> Json.t }

  let str name f = { name; cell = (fun r -> Json.Str (f r)) }
  let int name f = { name; cell = (fun r -> Json.Int (f r)) }
  let num name f = { name; cell = (fun r -> Json.Float (f r)) }
  let bool name f = { name; cell = (fun r -> Json.Bool (f r)) }
end

let row cols r = Json.Obj (List.map (fun c -> (c.Col.name, c.Col.cell r)) cols)

let table ?title cols rs =
  let body = Json.Arr (List.map (row cols) rs) in
  match title with
  | None -> body
  | Some title -> Json.Obj [ ("title", Json.Str title); ("rows", body) ]
