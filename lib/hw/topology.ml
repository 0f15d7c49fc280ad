type t = { sockets : int; cores_per_socket : int }

let create ~sockets ~cores_per_socket =
  if sockets <= 0 || cores_per_socket <= 0 then
    invalid_arg "Topology.create: counts must be positive";
  { sockets; cores_per_socket }

let cores t = t.sockets * t.cores_per_socket

let socket_of_core t core =
  if core < 0 || core >= cores t then invalid_arg "Topology.socket_of_core";
  core / t.cores_per_socket

let local_index t core = core - (socket_of_core t core * t.cores_per_socket)

let node_window_bits = 40
let node_base node = node lsl node_window_bits
let node_of_addr addr = addr lsr node_window_bits
