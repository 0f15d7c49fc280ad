type t = int

let max_ids = 128

let table =
  Name_table.create ~capacity:max_ids ~full:"Eid.register: element registry full"

let register n = Name_table.register table n
let name id = Name_table.name table id
let count () = Name_table.count table
let other = register "(other)"
