type t = {
  mutable instructions : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable l3_misses : int;
  mutable reads : int;
  mutable writes : int;
  mutable packets : int;
  fn_refs : int array;
  fn_l3_hits : int array;
  fn_l3_misses : int array;
}

let create () =
  {
    instructions = 0;
    l1_hits = 0;
    l2_hits = 0;
    l3_hits = 0;
    l3_misses = 0;
    reads = 0;
    writes = 0;
    packets = 0;
    fn_refs = Array.make Fn.max_tags 0;
    fn_l3_hits = Array.make Fn.max_tags 0;
    fn_l3_misses = Array.make Fn.max_tags 0;
  }

let copy t =
  {
    t with
    fn_refs = Array.copy t.fn_refs;
    fn_l3_hits = Array.copy t.fn_l3_hits;
    fn_l3_misses = Array.copy t.fn_l3_misses;
  }

let diff later earlier =
  {
    instructions = later.instructions - earlier.instructions;
    l1_hits = later.l1_hits - earlier.l1_hits;
    l2_hits = later.l2_hits - earlier.l2_hits;
    l3_hits = later.l3_hits - earlier.l3_hits;
    l3_misses = later.l3_misses - earlier.l3_misses;
    reads = later.reads - earlier.reads;
    writes = later.writes - earlier.writes;
    packets = later.packets - earlier.packets;
    fn_refs = Array.init Fn.max_tags (fun i -> later.fn_refs.(i) - earlier.fn_refs.(i));
    fn_l3_hits =
      Array.init Fn.max_tags (fun i -> later.fn_l3_hits.(i) - earlier.fn_l3_hits.(i));
    fn_l3_misses =
      Array.init Fn.max_tags (fun i -> later.fn_l3_misses.(i) - earlier.fn_l3_misses.(i));
  }

(* The add functions run once (or more) per simulated memory op, called
   from the hierarchy's hit paths: [@inline] so the classic compiler can
   inline them cross-module, and fn-indexed writes masked into range
   (fn tags are 6-bit by construction) in place of two bounds checks. *)
let[@inline] add_instructions t n = t.instructions <- t.instructions + n

let[@inline] bump a fn =
  let fn = fn land (Fn.max_tags - 1) in
  Array.unsafe_set a fn (Array.unsafe_get a fn + 1)

let[@inline] add_l1_hit t fn =
  t.l1_hits <- t.l1_hits + 1;
  bump t.fn_refs fn

let[@inline] add_l2_hit t fn =
  t.l2_hits <- t.l2_hits + 1;
  bump t.fn_refs fn

let[@inline] add_l3_hit t fn =
  t.l3_hits <- t.l3_hits + 1;
  bump t.fn_refs fn;
  bump t.fn_l3_hits fn

let[@inline] add_l3_miss t fn =
  t.l3_misses <- t.l3_misses + 1;
  bump t.fn_refs fn;
  bump t.fn_l3_misses fn

let[@inline] add_read t = t.reads <- t.reads + 1
let[@inline] add_write t = t.writes <- t.writes + 1
let[@inline] add_packet t = t.packets <- t.packets + 1
let[@inline] add_packets t n = t.packets <- t.packets + n

let instructions t = t.instructions
let l1_hits t = t.l1_hits
let l2_hits t = t.l2_hits
let l3_hits t = t.l3_hits
let l3_misses t = t.l3_misses
let l3_refs t = t.l3_hits + t.l3_misses
let mem_refs t = t.reads + t.writes
let reads t = t.reads
let writes t = t.writes
let packets t = t.packets

let fn_l3_refs t fn = t.fn_l3_hits.(fn) + t.fn_l3_misses.(fn)
let fn_l3_hits t fn = t.fn_l3_hits.(fn)
let fn_l3_misses t fn = t.fn_l3_misses.(fn)
let fn_refs t fn = t.fn_refs.(fn)

let equal a b =
  a.instructions = b.instructions && a.l1_hits = b.l1_hits
  && a.l2_hits = b.l2_hits && a.l3_hits = b.l3_hits
  && a.l3_misses = b.l3_misses && a.reads = b.reads && a.writes = b.writes
  && a.packets = b.packets && a.fn_refs = b.fn_refs
  && a.fn_l3_hits = b.fn_l3_hits && a.fn_l3_misses = b.fn_l3_misses
