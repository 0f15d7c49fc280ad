type t = {
  names : string array;
  ids : (string, int) Hashtbl.t;
  full : string;
  lock : Mutex.t;
}

let create ~capacity ~full =
  { names = Array.make capacity "?"; ids = Hashtbl.create 32; full;
    lock = Mutex.create () }

let register t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.ids name with
      | Some id -> id
      | None ->
          let id = Hashtbl.length t.ids in
          if id >= Array.length t.names then failwith t.full;
          t.names.(id) <- name;
          Hashtbl.add t.ids name id;
          id)

let name t id = if id >= 0 && id < Array.length t.names then t.names.(id) else "?"
let count t = Mutex.protect t.lock (fun () -> Hashtbl.length t.ids)
