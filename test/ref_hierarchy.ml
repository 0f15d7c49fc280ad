(* The cache hierarchy as it stood before inclusion became a checked
   invariant, kept verbatim as a reference oracle: [Cache] and [Hierarchy]
   from lib/hw, with only the module wrapping added and the functions this
   file never calls dropped. It still carries the code for a machine where
   inclusion fails (the DMA sweep of private caches, the memory write-back
   of a dirty private victim missing from L3) and the controller fallbacks
   for an address on a node without one. The live hierarchy in lib/hw must
   stay observationally identical to this on every machine where inclusion
   holds and every address names a node the machine has, which the qcheck
   differential in hierarchy_diff_tests checks on random geometries and
   streams. Do not "improve" this file; its value is that it does not
   change. *)

open Ppp_hw

module Cache = struct
  type geometry = { size_bytes : int; ways : int; line_bytes : int }

  type t = {
    geo : geometry;
    nsets : int;
    line_shift : int;
    tags : int array; (* nsets * ways; -1 = invalid; otherwise the line number *)
    stamp : int array; (* LRU timestamps *)
    dirty_bits : Bytes.t;
    auxs : int array;
    mru : int array;
        (* per set: the way of the last hit or fill — way prediction for
           [probe]. Purely an accelerator: a stale entry just falls through
           to the full scan, so it never changes what a lookup returns. *)
    mutable tick : int;
    mutable valid : int;
  }

  let none = -1

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let log2 n =
    let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
    go 0 n

  let create geo =
    if not (is_pow2 geo.line_bytes) then
      invalid_arg "Cache.create: line_bytes must be a power of two";
    if geo.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
    if geo.size_bytes mod (geo.ways * geo.line_bytes) <> 0 then
      invalid_arg "Cache.create: size not divisible by ways * line_bytes";
    let nsets = geo.size_bytes / (geo.ways * geo.line_bytes) in
    if not (is_pow2 nsets) then
      invalid_arg "Cache.create: set count must be a power of two";
    let n = nsets * geo.ways in
    {
      geo;
      nsets;
      line_shift = log2 geo.line_bytes;
      tags = Array.make n (-1);
      stamp = Array.make n 0;
      dirty_bits = Bytes.make n '\000';
      auxs = Array.make n 0;
      mru = Array.make nsets 0;
      tick = 0;
      valid = 0;
    }

  let geometry t = t.geo
  let line_of_addr t addr = addr lsr t.line_shift
  let set_of_line t line = line land (t.nsets - 1)
  let base t line = set_of_line t line * t.geo.ways

  (* The simulator's innermost loop ends here: every replayed memory op probes
     one to three of these way scans. Sentinel returns (no option box), unsafe
     reads, and a flat while-loop (a local recursive function would cost a
     closure per probe without flambda) keep the hit path allocation-free;
     indices are in range by construction (base + w < nsets * ways).

     The per-set way prediction in [mru] resolves the common re-hit — packet
     processing touches the same handful of lines over and over — in one
     compare instead of a scan. A mispredict falls through to the scan, so
     prediction state can never change a result. *)
  let[@inline] probe t line =
    let s = set_of_line t line in
    let b = s * t.geo.ways in
    let p = b + Array.unsafe_get t.mru s in
    if Array.unsafe_get t.tags p = line then p
    else begin
      let last = b + t.geo.ways - 1 in
      let i = ref b in
      while !i <= last && Array.unsafe_get t.tags !i <> line do incr i done;
      if !i <= last then begin
        Array.unsafe_set t.mru s (!i - b);
        !i
      end
      else none
    end

  let[@inline] touch t i =
    t.tick <- t.tick + 1;
    Array.unsafe_set t.stamp i t.tick

  let[@inline] find t line =
    let i = probe t line in
    if i >= 0 then touch t i;
    i

  let[@inline] dirty t i = Bytes.unsafe_get t.dirty_bits i <> '\000'

  let[@inline] set_dirty t i d =
    Bytes.unsafe_set t.dirty_bits i (if d then '\001' else '\000')

  let[@inline] aux t i = Array.unsafe_get t.auxs i
  let[@inline] set_aux t i v = Array.unsafe_set t.auxs i v
  let[@inline] line t i = Array.unsafe_get t.tags i
  let[@inline] slot_valid t i = Array.unsafe_get t.tags i <> -1

  (* Two-step insert protocol: [victim_slot] picks the way [fill] will
     overwrite — an invalid way if the set has one, else its LRU way — so the
     caller reads the victim's line/dirty/aux in place and handles writeback
     before filling. No eviction record is ever allocated. *)
  let victim_slot t line =
    let b = base t line in
    let victim = ref (-1) in
    let lru = ref b in
    let lru_stamp = ref (Array.unsafe_get t.stamp b) in
    for w = 0 to t.geo.ways - 1 do
      let i = b + w in
      let tag = Array.unsafe_get t.tags i in
      if tag = line then invalid_arg "Cache.victim_slot: line already resident";
      if tag = -1 && !victim = -1 then victim := i;
      let s = Array.unsafe_get t.stamp i in
      if s < !lru_stamp then begin
        lru := i;
        lru_stamp := s
      end
    done;
    if !victim >= 0 then !victim else !lru

  (* [find] and [victim_slot] in one pass over the set, for the L3 miss path
     (which always needs one or the other): a hit behaves exactly like [find]
     (touch, way prediction); a miss returns the way [fill] must overwrite,
     encoded as [-2 - slot] to keep the result an immediate int. The victim
     choice — first invalid way, else first-scanned LRU way — replicates
     [victim_slot] decision for decision. *)
  let find_or_victim t line =
    let ways = t.geo.ways in
    let s = set_of_line t line in
    let b = s * ways in
    let p = b + Array.unsafe_get t.mru s in
    if Array.unsafe_get t.tags p = line then begin
      touch t p;
      p
    end
    else begin
      let hit = ref (-1) in
      let invalid = ref (-1) in
      let lru = ref b in
      let lru_stamp = ref (Array.unsafe_get t.stamp b) in
      let w = ref 0 in
      while !hit < 0 && !w < ways do
        let i = b + !w in
        let tag = Array.unsafe_get t.tags i in
        if tag = line then hit := i
        else begin
          if tag = -1 && !invalid = -1 then invalid := i;
          let st = Array.unsafe_get t.stamp i in
          if st < !lru_stamp then begin
            lru := i;
            lru_stamp := st
          end
        end;
        incr w
      done;
      if !hit >= 0 then begin
        Array.unsafe_set t.mru s (!hit - b);
        touch t !hit;
        !hit
      end
      else -2 - (if !invalid >= 0 then !invalid else !lru)
    end

  let fill t ~slot ~dirty ~aux line =
    if Array.unsafe_get t.tags slot = -1 then t.valid <- t.valid + 1;
    Array.unsafe_set t.tags slot line;
    set_dirty t slot dirty;
    Array.unsafe_set t.auxs slot aux;
    (* Point the set's way prediction at the freshly inserted line. *)
    let s = slot / t.geo.ways in
    Array.unsafe_set t.mru s (slot - (s * t.geo.ways));
    touch t slot

  let invalidate_slot t i =
    if Array.unsafe_get t.tags i <> -1 then begin
      Array.unsafe_set t.tags i (-1);
      Array.unsafe_set t.stamp i 0;
      set_dirty t i false;
      Array.unsafe_set t.auxs i 0;
      t.valid <- t.valid - 1
    end

  let resident t line = probe t line >= 0
  let occupancy t = t.valid
end

type geometry = { l1 : Cache.geometry; l2 : Cache.geometry; l3 : Cache.geometry }

type t = {
  topo : Topology.t;
  costs : Costs.t;
  l1s : Cache.t array; (* per core *)
  l2s : Cache.t array; (* per core *)
  l3s : Cache.t array; (* per socket; aux = directory presence bits *)
  memctrls : Memctrl.t array; (* per node *)
  counters : Counters.t array; (* per core *)
  miss_streak : bool array; (* per core: previous access was a DRAM miss *)
  (* Topology.socket_of_core / local_index, precomputed per core: the
     topology functions divide (and bounds-check) on every miss-path call. *)
  socket_of : int array;
  local_ix : int array;
}

(* Private-cache aux: bit 0 set when the core holds the line exclusively
   (no other private cache on the socket may hold it). *)
let excl = 1

let create topo costs geo =
  if geo.l1.line_bytes <> geo.l2.line_bytes || geo.l2.line_bytes <> geo.l3.line_bytes
  then invalid_arg "Hierarchy.create: all levels must share a line size";
  let cores = Topology.cores topo in
  {
    topo;
    costs;
    l1s = Array.init cores (fun _ -> Cache.create geo.l1);
    l2s = Array.init cores (fun _ -> Cache.create geo.l2);
    l3s = Array.init topo.Topology.sockets (fun _ -> Cache.create geo.l3);
    memctrls =
      Array.init topo.Topology.sockets (fun _ ->
          Memctrl.create ~service_cycles:costs.Costs.mc_service);
    counters = Array.init cores (fun _ -> Counters.create ());
    miss_streak = Array.make cores false;
    socket_of = Array.init cores (fun c -> Topology.socket_of_core topo c);
    local_ix = Array.init cores (fun c -> Topology.local_index topo c);
  }

let counters t core = t.counters.(core)

(* Write a dirty private victim down into L3 (inclusion guarantees presence;
   if violated, fall back to a posted memory write-back). *)
let writeback_to_l3 t ~socket ~line ~now =
  let l3 = t.l3s.(socket) in
  let slot = Cache.probe l3 line in
  if slot >= 0 then Cache.set_dirty l3 slot true
  else begin
    (* Inclusion should make this unreachable; keep the model safe anyway. *)
    let node = Topology.node_of_addr (line * (Cache.geometry l3).Cache.line_bytes) in
    Memctrl.writeback t.memctrls.(Int.min node (Array.length t.memctrls - 1)) ~now
  end

(* Insert [line] into a private cache, cascading dirty victims downwards.
   Victims are read in place through the two-step victim_slot/fill protocol
   — the victim's identity and dirtiness live in the slot until [fill]
   overwrites them, so no eviction record exists. Victim handling only
   touches *lower* levels, so doing it before the fill is state-identical
   to the old insert-then-handle order. *)
let fill_private t ~core ~socket ~line ~exclusive ~dirty ~now =
  let aux = if exclusive then excl else 0 in
  let l2 = t.l2s.(core) in
  let s2 = Cache.victim_slot l2 line in
  if Cache.slot_valid l2 s2 && Cache.dirty l2 s2 then
    writeback_to_l3 t ~socket ~line:(Cache.line l2 s2) ~now;
  Cache.fill l2 ~slot:s2 ~dirty:false ~aux line;
  let l1 = t.l1s.(core) in
  let s1 = Cache.victim_slot l1 line in
  if Cache.slot_valid l1 s1 && Cache.dirty l1 s1 then begin
    (* L1 victim descends into L2 (non-inclusive L2, as on Westmere). *)
    let victim_line = Cache.line l1 s1 in
    let sv = Cache.find l2 victim_line in
    if sv >= 0 then Cache.set_dirty l2 sv true
    else begin
      let sv = Cache.victim_slot l2 victim_line in
      if Cache.slot_valid l2 sv && Cache.dirty l2 sv then
        writeback_to_l3 t ~socket ~line:(Cache.line l2 sv) ~now;
      Cache.fill l2 ~slot:sv ~dirty:true ~aux:0 victim_line
    end
  end;
  Cache.fill l1 ~slot:s1 ~dirty ~aux line

(* Remove a line from a core's private caches; true if a dirty copy existed.
   The snoop helpers below are written as flat loops over the directory
   bits — closure-per-snoop (the old iter_holders shape) was a measurable
   share of the contended workload's allocation. *)
let invalidate_private t ~core ~line =
  let l1 = t.l1s.(core) in
  let s1 = Cache.probe l1 line in
  let d1 = s1 >= 0 && Cache.dirty l1 s1 in
  if s1 >= 0 then Cache.invalidate_slot l1 s1;
  let l2 = t.l2s.(core) in
  let s2 = Cache.probe l2 line in
  let d2 = s2 >= 0 && Cache.dirty l2 s2 in
  if s2 >= 0 then Cache.invalidate_slot l2 s2;
  d1 || d2

(* Invalidate every holder of [line] per directory [bits] except
   [excluding] (a local index; -1 for none); returns true if any dirty copy
   was found (its data is merged into the L3). *)
let invalidate_holders t ~socket ~bits ~excluding ~line =
  let base_core = socket * t.topo.Topology.cores_per_socket in
  let found_dirty = ref false in
  for li = 0 to t.topo.Topology.cores_per_socket - 1 do
    if li <> excluding && bits land (1 lsl li) <> 0 then
      if invalidate_private t ~core:(base_core + li) ~line then
        found_dirty := true
  done;
  !found_dirty

let invalidate_other_holders t ~socket ~bits ~self_li ~line =
  invalidate_holders t ~socket ~bits ~excluding:self_li ~line

(* Downgrade other holders for a read: dirty copies are flushed to L3 and
   lose exclusivity, but stay resident. *)
let downgrade_other_holders t ~socket ~bits ~self_li ~line =
  let base_core = socket * t.topo.Topology.cores_per_socket in
  let found_dirty = ref false in
  for li = 0 to t.topo.Topology.cores_per_socket - 1 do
    if li <> self_li && bits land (1 lsl li) <> 0 then begin
      let core = base_core + li in
      let l1 = t.l1s.(core) in
      let s1 = Cache.probe l1 line in
      if s1 >= 0 then begin
        if Cache.dirty l1 s1 then found_dirty := true;
        Cache.set_dirty l1 s1 false;
        Cache.set_aux l1 s1 0
      end;
      let l2 = t.l2s.(core) in
      let s2 = Cache.probe l2 line in
      if s2 >= 0 then begin
        if Cache.dirty l2 s2 then found_dirty := true;
        Cache.set_dirty l2 s2 false;
        Cache.set_aux l2 s2 0
      end
    end
  done;
  !found_dirty

(* Ensure exclusivity before a write that hit a non-exclusive private line:
   one round trip to the directory, invalidating peer copies. *)
let upgrade t ~socket ~self_li ~line =
  let l3 = t.l3s.(socket) in
  let slot = Cache.probe l3 line in
  if slot >= 0 then begin
    let bits = Cache.aux l3 slot in
    let self = 1 lsl self_li in
    if invalidate_other_holders t ~socket ~bits ~self_li ~line then
      Cache.set_dirty l3 slot true;
    Cache.set_aux l3 slot self
  end;
  t.costs.Costs.upgrade_lat

let mark_exclusive cache line =
  let slot = Cache.probe cache line in
  if slot >= 0 then Cache.set_aux cache slot excl

let access t ~core ~write ~fn ~addr ~now =
  let costs = t.costs in
  let ctr = Array.unsafe_get t.counters core in
  if write then Counters.add_write ctr else Counters.add_read ctr;
  Counters.add_instructions ctr 1;
  let l1 = Array.unsafe_get t.l1s core in
  let line = Cache.line_of_addr l1 addr in
  let slot = Cache.find l1 line in
  if slot >= 0 then begin
    (* L1 hit — the simulator's common case; nothing here may allocate. *)
    Array.unsafe_set t.miss_streak core false;
    Counters.add_l1_hit ctr fn;
    if write then begin
      if Cache.aux l1 slot land excl = 0 then begin
        let socket = Array.unsafe_get t.socket_of core in
        let self_li = Array.unsafe_get t.local_ix core in
        let lat = upgrade t ~socket ~self_li ~line in
        Cache.set_aux l1 slot excl;
        mark_exclusive t.l2s.(core) line;
        Cache.set_dirty l1 slot true;
        costs.Costs.l1_lat + lat
      end
      else begin
        Cache.set_dirty l1 slot true;
        costs.Costs.l1_lat
      end
    end
    else costs.Costs.l1_lat
  end
  else begin
    let socket = Array.unsafe_get t.socket_of core in
    let self_li = Array.unsafe_get t.local_ix core in
    let self = 1 lsl self_li in
    let l2 = t.l2s.(core) in
    let slot = Cache.find l2 line in
    if slot >= 0 then begin
      (* L2 hit: refill L1. *)
      t.miss_streak.(core) <- false;
      Counters.add_l2_hit ctr fn;
      let exclusive = Cache.aux l2 slot land excl <> 0 in
      let extra =
        if write && not exclusive then upgrade t ~socket ~self_li ~line else 0
      in
      let exclusive = exclusive || write in
      let dirty_in_l2 = Cache.dirty l2 slot in
      Cache.invalidate_slot l2 slot;
      (* Move up to L1 (keeping dirtiness); L2 copy dropped to avoid
         double-tracking dirtiness across the two private levels. *)
      fill_private t ~core ~socket ~line ~exclusive
        ~dirty:(dirty_in_l2 || write) ~now;
      costs.Costs.l2_lat + extra
    end
    else begin
      let l3 = t.l3s.(socket) in
      (* Hit slot or victim slot in one scan of the set — the miss path
         needs the victim anyway, and the two-scan shape paid for it
         twice. *)
      let fv = Cache.find_or_victim l3 line in
      let slot = fv in
      if slot >= 0 then begin
        (* L3 hit. *)
        t.miss_streak.(core) <- false;
        Counters.add_l3_hit ctr fn;
        let bits = Cache.aux l3 slot in
        let others = bits land lnot self in
        let snoop_cost = ref 0 in
        if others <> 0 then
          if write then begin
            if invalidate_other_holders t ~socket ~bits ~self_li ~line then
              Cache.set_dirty l3 slot true;
            Cache.set_aux l3 slot self;
            snoop_cost := costs.Costs.upgrade_lat
          end
          else begin
            if downgrade_other_holders t ~socket ~bits ~self_li ~line then begin
              Cache.set_dirty l3 slot true;
              snoop_cost := costs.Costs.c2c_lat
            end;
            Cache.set_aux l3 slot (bits lor self)
          end
        else Cache.set_aux l3 slot (bits lor self);
        let exclusive = Cache.aux l3 slot = self in
        fill_private t ~core ~socket ~line ~exclusive ~dirty:write ~now;
        costs.Costs.l3_lat + !snoop_cost
      end
      else begin
        (* L3 miss: go to the home node's memory controller. *)
        Counters.add_l3_miss ctr fn;
        let node = Topology.node_of_addr addr in
        let remote = node <> socket && node < Array.length t.memctrls in
        let mc =
          if node < Array.length t.memctrls then t.memctrls.(node)
          else t.memctrls.(socket)
        in
        let queue_wait = Memctrl.demand_access mc ~now in
        (* Back-to-back misses overlap on an out-of-order core: only
           1/mlp of the DRAM latency is exposed past the first. *)
        let dram_exposed =
          if t.miss_streak.(core) && costs.Costs.mlp > 1 then
            costs.Costs.dram_lat / costs.Costs.mlp
          else costs.Costs.dram_lat
        in
        t.miss_streak.(core) <- true;
        (* Fill L3; inclusion: back-invalidate private copies of the victim
           across the socket. Victim state is read in place before the fill
           overwrites the slot. The victim way came out of the combined
           lookup scan above; nothing between the scan and here touches the
           L3, so the choice is the one [victim_slot] would make now. *)
        let vs = -2 - fv in
        if Cache.slot_valid l3 vs then begin
          let victim_line = Cache.line l3 vs in
          let victim_dirty = Cache.dirty l3 vs in
          let victim_aux = Cache.aux l3 vs in
          let priv_dirty =
            invalidate_holders t ~socket ~bits:victim_aux ~excluding:(-1)
              ~line:victim_line
          in
          if victim_dirty || priv_dirty then begin
            let vnode =
              let vaddr = victim_line * Cache.(geometry l3).line_bytes in
              Topology.node_of_addr vaddr
            in
            let vmc =
              if vnode < Array.length t.memctrls then t.memctrls.(vnode)
              else mc
            in
            Memctrl.writeback vmc ~now
          end
        end;
        Cache.fill l3 ~slot:vs ~dirty:write ~aux:self line;
        fill_private t ~core ~socket ~line ~exclusive:true ~dirty:write ~now;
        costs.Costs.l3_lat + dram_exposed + queue_wait
        + (if remote then costs.Costs.qpi_lat else 0)
      end
    end
  end

let dma_write t ~addr ~now =
  let line = Cache.line_of_addr t.l1s.(0) addr in
  for socket = 0 to Array.length t.l3s - 1 do
    let l3 = t.l3s.(socket) in
    let slot = Cache.probe l3 line in
    if slot >= 0 then begin
      let bits = Cache.aux l3 slot in
      Cache.invalidate_slot l3 slot;
      ignore (invalidate_holders t ~socket ~bits ~excluding:(-1) ~line : bool)
    end
    else begin
      (* Directory is conservative; sweep private caches anyway. *)
      let base = socket * t.topo.Topology.cores_per_socket in
      for li = 0 to t.topo.Topology.cores_per_socket - 1 do
        ignore (invalidate_private t ~core:(base + li) ~line : bool)
      done
    end
  done;
  let node = Topology.node_of_addr addr in
  let mc =
    if node < Array.length t.memctrls then t.memctrls.(node) else t.memctrls.(0)
  in
  Memctrl.writeback mc ~now

let l3_occupancy t ~socket = Cache.occupancy t.l3s.(socket)

let l3_resident t ~socket ~addr =
  let l3 = t.l3s.(socket) in
  Cache.resident l3 (Cache.line_of_addr l3 addr)

let private_resident t ~core ~addr =
  let l1 = t.l1s.(core) in
  let line = Cache.line_of_addr l1 addr in
  Cache.resident l1 line || Cache.resident t.l2s.(core) line

let directory_marks t ~core ~addr =
  let socket = Topology.socket_of_core t.topo core in
  let l3 = t.l3s.(socket) in
  let slot = Cache.probe l3 (Cache.line_of_addr l3 addr) in
  slot >= 0
  && Cache.aux l3 slot land (1 lsl Topology.local_index t.topo core) <> 0

let memctrl_transactions t ~node = Memctrl.transactions t.memctrls.(node)
