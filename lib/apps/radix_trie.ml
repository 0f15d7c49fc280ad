open Ppp_simmem

(* Entry packing: bits 0-15 next hop, 16-21 prefix length of that hop,
   bit 22+ child node index plus one (0 = no child). *)
let hop_of e = e land 0xFFFF
let plen_of e = (e lsr 16) land 0x3F
let child_of e = (e lsr 22) - 1
let pack ~hop ~plen ~child =
  ((child + 1) lsl 22) lor ((plen land 0x3F) lsl 16) lor (hop land 0xFFFF)

type t = {
  root : int Iarray.t; (* 65536 entries *)
  pool : int Iarray.t; (* max_nodes * 256 entries *)
  max_nodes : int;
  default_hop : int;
  mutable next_node : int;
  relocated : bool; (* a read-only view of another trie's entries *)
}

let node_entries = 256

(* The node pool takes its simulated range before the root: every trie
   address, and so every golden, depends on this order, and [relocate]
   repeats it. *)
let create ~heap ?(max_nodes = 16384) ~default_hop () =
  if max_nodes <= 0 then invalid_arg "Radix_trie.create: max_nodes";
  let pool = Iarray.create heap ~elem_bytes:8 (max_nodes * node_entries) 0 in
  let root = Iarray.create heap ~elem_bytes:8 65536 0 in
  {
    root;
    pool;
    max_nodes;
    default_hop;
    next_node = 0;
    relocated = false;
  }

let relocate ~heap t =
  let pool = Iarray.relocate heap t.pool in
  let root = Iarray.relocate heap t.root in
  { t with root; pool; relocated = true }

let alloc_node t =
  if t.next_node >= t.max_nodes then failwith "Radix_trie: node pool exhausted";
  let n = t.next_node in
  t.next_node <- n + 1;
  n

(* Read/update one entry of either the root (node = -1) or a pool node. *)
let peek_entry t ~node ~idx =
  if node < 0 then Iarray.peek t.root idx
  else Iarray.peek t.pool ((node * node_entries) + idx)

let poke_entry t ~node ~idx v =
  if node < 0 then Iarray.poke t.root idx v
  else Iarray.poke t.pool ((node * node_entries) + idx) v

let ensure_child t ~node ~idx =
  let e = peek_entry t ~node ~idx in
  let c = child_of e in
  if c >= 0 then c
  else begin
    let c = alloc_node t in
    poke_entry t ~node ~idx (pack ~hop:(hop_of e) ~plen:(plen_of e) ~child:c);
    c
  end

let fill_entries t ~node ~first ~count ~hop ~plen =
  for idx = first to first + count - 1 do
    let e = peek_entry t ~node ~idx in
    if plen_of e <= plen || hop_of e = 0 then
      poke_entry t ~node ~idx (pack ~hop ~plen ~child:(child_of e))
  done

let add_route t ~prefix ~plen ~hop =
  if t.relocated then invalid_arg "Radix_trie.add_route: relocated view";
  if plen < 0 || plen > 32 then invalid_arg "Radix_trie.add_route: plen";
  if hop <= 0 || hop > 0xFFFF then invalid_arg "Radix_trie.add_route: hop";
  let prefix = prefix land 0xFFFFFFFF in
  if plen <= 16 then
    let first = (prefix lsr 16) land (lnot ((1 lsl (16 - plen)) - 1) land 0xFFFF) in
    fill_entries t ~node:(-1) ~first ~count:(1 lsl (16 - plen)) ~hop ~plen
  else begin
    let n1 = ensure_child t ~node:(-1) ~idx:(prefix lsr 16) in
    if plen <= 24 then
      let first = (prefix lsr 8) land 0xFF land (lnot ((1 lsl (24 - plen)) - 1) land 0xFF) in
      fill_entries t ~node:n1 ~first ~count:(1 lsl (24 - plen)) ~hop ~plen
    else begin
      let n2 = ensure_child t ~node:n1 ~idx:((prefix lsr 8) land 0xFF) in
      let first = prefix land 0xFF land (lnot ((1 lsl (32 - plen)) - 1) land 0xFF) in
      fill_entries t ~node:n2 ~first ~count:(1 lsl (32 - plen)) ~hop ~plen
    end
  end

let lookup_gen t read dst =
  let dst = dst land 0xFFFFFFFF in
  let best = ref t.default_hop in
  let e0 = read t.root (dst lsr 16) in
  if hop_of e0 > 0 then best := hop_of e0;
  let c1 = child_of e0 in
  if c1 >= 0 then begin
    (* Each node visit reads the node header line, then the entry. *)
    ignore (read t.pool (c1 * node_entries) : int);
    let e1 = read t.pool ((c1 * node_entries) + ((dst lsr 8) land 0xFF)) in
    if hop_of e1 > 0 then best := hop_of e1;
    let c2 = child_of e1 in
    if c2 >= 0 then begin
      ignore (read t.pool (c2 * node_entries) : int);
      let e2 = read t.pool ((c2 * node_entries) + (dst land 0xFF)) in
      if hop_of e2 > 0 then best := hop_of e2
    end
  end;
  !best

(* The instrumented lookup is specialized rather than going through
   [lookup_gen]: the closure over the builder cost an allocation and an
   indirect call per table read, on every forwarded packet. *)
let lookup t b ~fn dst =
  let dst = dst land 0xFFFFFFFF in
  let best = ref t.default_hop in
  let e0 = Iarray.get t.root b ~fn (dst lsr 16) in
  if hop_of e0 > 0 then best := hop_of e0;
  let c1 = child_of e0 in
  if c1 >= 0 then begin
    ignore (Iarray.get t.pool b ~fn (c1 * node_entries) : int);
    let e1 = Iarray.get t.pool b ~fn ((c1 * node_entries) + ((dst lsr 8) land 0xFF)) in
    if hop_of e1 > 0 then best := hop_of e1;
    let c2 = child_of e1 in
    if c2 >= 0 then begin
      ignore (Iarray.get t.pool b ~fn (c2 * node_entries) : int);
      let e2 = Iarray.get t.pool b ~fn ((c2 * node_entries) + (dst land 0xFF)) in
      if hop_of e2 > 0 then best := hop_of e2
    end
  end;
  !best

let lookup_quiet t dst = lookup_gen t Iarray.peek dst
