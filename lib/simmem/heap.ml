type t = { node : int; mutable next : int; limit : int }

let line = 64

let create ~node =
  if node < 0 then invalid_arg "Heap.create: negative node";
  let base = Ppp_hw.Topology.node_base node in
  (* Skip the window's first line so address 0 is never handed out. *)
  { node; next = base + line; limit = base + (1 lsl Ppp_hw.Topology.node_window_bits) }

let alloc t ~bytes =
  if bytes <= 0 then invalid_arg "Heap.alloc: size must be positive";
  let rounded = (bytes + line - 1) / line * line in
  if t.next + rounded > t.limit then failwith "Heap.alloc: node window exhausted";
  let base = t.next in
  t.next <- t.next + rounded;
  base

let used t = t.next - Ppp_hw.Topology.node_base t.node - line
