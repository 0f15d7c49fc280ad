type t = {
  service_cycles : int;
  mutable free_at : int;
  mutable transactions : int;
}

let create ~service_cycles =
  if service_cycles <= 0 then invalid_arg "Memctrl.create";
  { service_cycles; free_at = 0; transactions = 0 }

let[@inline] occupy t ~now =
  let wait = Int.max 0 (t.free_at - now) in
  t.free_at <- now + wait + t.service_cycles;
  t.transactions <- t.transactions + 1;
  wait

let demand_access t ~now = occupy t ~now

let writeback t ~now =
  let (_ : int) = occupy t ~now in
  ()

let transactions t = t.transactions
