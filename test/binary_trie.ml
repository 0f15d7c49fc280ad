(* A one-bit-per-level binary trie (no path compression), after the
   original Click RadixTrie, as a second reference oracle for
   Ppp_apps.Radix_trie next to the linear scan in apps_tests. Same
   semantics: longest prefix wins, equal-length later routes overwrite,
   hop 0 means "no route". Lookups walk up to 32 nodes, one reference each,
   where the multibit trie walks at most three levels. *)

open Ppp_simmem

(* Node packing (one 8-byte element per node):
   bits 0-15 hop, 16-38 left child + 1, 39-61 right child + 1 (0 = none). *)
let hop_of v = v land 0xFFFF
let left_of v = ((v lsr 16) land 0x7FFFFF) - 1
let right_of v = ((v lsr 39) land 0x7FFFFF) - 1

let pack ~hop ~left ~right =
  (hop land 0xFFFF) lor ((left + 1) lsl 16) lor ((right + 1) lsl 39)

type t = {
  pool : int Iarray.t;
  max_nodes : int;
  default_hop : int;
  mutable next : int; (* node 0 is the root *)
  mutable routes : int;
}

let create ~heap ?(max_nodes = 262144) ~default_hop () =
  if max_nodes <= 1 then invalid_arg "Binary_trie.create: max_nodes";
  let t =
    {
      pool = Iarray.create heap ~elem_bytes:8 max_nodes 0;
      max_nodes;
      default_hop;
      next = 1;
      routes = 0;
    }
  in
  Iarray.poke t.pool 0 (pack ~hop:0 ~left:(-1) ~right:(-1));
  t

let alloc t =
  if t.next >= t.max_nodes then failwith "Binary_trie: node pool exhausted";
  let n = t.next in
  t.next <- n + 1;
  Iarray.poke t.pool n (pack ~hop:0 ~left:(-1) ~right:(-1));
  n

let add_route t ~prefix ~plen ~hop =
  if plen < 0 || plen > 32 then invalid_arg "Binary_trie.add_route: plen";
  if hop <= 0 || hop > 0xFFFF then invalid_arg "Binary_trie.add_route: hop";
  let prefix = prefix land 0xFFFFFFFF in
  let node = ref 0 in
  for bit = 0 to plen - 1 do
    let v = Iarray.peek t.pool !node in
    let go_right = (prefix lsr (31 - bit)) land 1 = 1 in
    let child = if go_right then right_of v else left_of v in
    let child =
      if child >= 0 then child
      else begin
        let c = alloc t in
        let v = Iarray.peek t.pool !node in
        let updated =
          if go_right then pack ~hop:(hop_of v) ~left:(left_of v) ~right:c
          else pack ~hop:(hop_of v) ~left:c ~right:(right_of v)
        in
        Iarray.poke t.pool !node updated;
        c
      end
    in
    node := child
  done;
  let v = Iarray.peek t.pool !node in
  Iarray.poke t.pool !node (pack ~hop ~left:(left_of v) ~right:(right_of v));
  t.routes <- t.routes + 1

let lookup_gen t read dst =
  let dst = dst land 0xFFFFFFFF in
  let best = ref t.default_hop in
  let node = ref 0 in
  let bit = ref 0 in
  let continue_ = ref true in
  while !continue_ && !bit <= 32 do
    let v = read t.pool !node in
    if hop_of v > 0 then best := hop_of v;
    if !bit = 32 then continue_ := false
    else begin
      let child =
        if (dst lsr (31 - !bit)) land 1 = 1 then right_of v else left_of v
      in
      if child < 0 then continue_ := false
      else begin
        node := child;
        incr bit
      end
    end
  done;
  !best

let lookup t b ~fn dst = lookup_gen t (fun arr i -> Iarray.get arr b ~fn i) dst
let lookup_quiet t dst = lookup_gen t Iarray.peek dst
