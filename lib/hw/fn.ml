type t = int

let max_tags = 64
let names = Array.make max_tags "?"
let tags : (string, int) Hashtbl.t = Hashtbl.create 32
let lock = Mutex.create ()

let register name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt tags name with
      | Some tag -> tag
      | None ->
          let tag = Hashtbl.length tags in
          if tag >= max_tags then failwith "Fn.register: tag registry full";
          names.(tag) <- name;
          Hashtbl.add tags name tag;
          tag)

(* Reads without the lock: a tag's slot is written before [register]
   returns it. *)
let name tag = if tag >= 0 && tag < max_tags then names.(tag) else "?"
let count () = Mutex.protect lock (fun () -> Hashtbl.length tags)
let none = register "-"
