type t = int

let max_tags = 64

let table =
  Name_table.create ~capacity:max_tags ~full:"Fn.register: tag registry full"

let register name = Name_table.register table name
let name tag = Name_table.name table tag
let count () = Name_table.count table
let none = register "-"
