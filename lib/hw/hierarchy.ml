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

let topology t = t.topo
let costs t = t.costs
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
