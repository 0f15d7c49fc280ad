open Ppp_simmem

(* One slot: the full 5-tuple key plus the cached action. s_proto = -1 marks
   a never-filled slot; real protocols are >= 0. Simulated size 32 bytes —
   two slots per cache line, like a packed C struct of six ints. *)
type slot = {
  s_src : int;
  s_dst : int;
  s_sport : int;
  s_dport : int;
  s_proto : int;
  s_action : int;
}

let empty_slot =
  { s_src = 0; s_dst = 0; s_sport = 0; s_dport = 0; s_proto = -1; s_action = 0 }

type t = {
  slots : slot Iarray.t;
  mask : int;
  probe_limit : int;
  mutable stamp : int;  (* round-robin victim cursor *)
  mutable hits : int;
  mutable misses : int;
  mutable installs : int;
  mutable evictions : int;
}

let absent = min_int
let rec pow2 n v = if v >= n then v else pow2 n (v * 2)

let create ~heap ?(probe_limit = 8) ~entries () =
  if entries <= 0 then invalid_arg "Flow_table.create";
  if probe_limit <= 0 then invalid_arg "Flow_table.create: probe_limit";
  let cap = pow2 entries 16 in
  {
    slots = Iarray.create heap ~elem_bytes:32 cap empty_slot;
    mask = cap - 1;
    probe_limit = min probe_limit cap;
    stamp = 0;
    hits = 0;
    misses = 0;
    installs = 0;
    evictions = 0;
  }

let capacity t = t.mask + 1
let hits t = t.hits
let misses t = t.misses
let installs t = t.installs
let evictions t = t.evictions

let home t h = (h lsr 16) land t.mask

let find t b ~fn pkt =
  let src = Ppp_net.Ipv4.src pkt in
  let dst = Ppp_net.Ipv4.dst pkt in
  let proto = Ppp_net.Ipv4.proto pkt in
  let sport = Ppp_net.Transport.src_port pkt in
  let dport = Ppp_net.Transport.dst_port pkt in
  let h = home t (Ppp_net.Flowid.hash_of_packet pkt) in
  let result = ref absent in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < t.probe_limit do
    let s = Iarray.get t.slots b ~fn ((h + !i) land t.mask) in
    if s.s_proto = -1 then stop := true (* never-filled: key cannot be past *)
    else if
      s.s_src = src && s.s_dst = dst && s.s_sport = sport && s.s_dport = dport
      && s.s_proto = proto
    then begin
      result := s.s_action;
      stop := true
    end
    else incr i
  done;
  if !result = absent then t.misses <- t.misses + 1 else t.hits <- t.hits + 1;
  !result

let install t b ~fn (f : Ppp_net.Flowid.t) action =
  if action = absent then invalid_arg "Flow_table.install: absent sentinel";
  let slot =
    {
      s_src = f.Ppp_net.Flowid.src;
      s_dst = f.Ppp_net.Flowid.dst;
      s_sport = f.Ppp_net.Flowid.sport;
      s_dport = f.Ppp_net.Flowid.dport;
      s_proto = f.Ppp_net.Flowid.proto;
      s_action = action;
    }
  in
  let h = home t (Ppp_net.Flowid.hash f) in
  let target = ref (-1) in
  let evict = ref false in
  let i = ref 0 in
  while !target < 0 && !i < t.probe_limit do
    let s = Iarray.get t.slots b ~fn ((h + !i) land t.mask) in
    if
      s.s_proto = -1
      || s.s_src = slot.s_src && s.s_dst = slot.s_dst
         && s.s_sport = slot.s_sport && s.s_dport = slot.s_dport
         && s.s_proto = slot.s_proto
    then target := (h + !i) land t.mask
    else incr i
  done;
  if !target < 0 then begin
    (* Window full: deterministic round-robin victim within the window. *)
    target := (h + (t.stamp mod t.probe_limit)) land t.mask;
    t.stamp <- t.stamp + 1;
    evict := true
  end;
  Iarray.set t.slots b ~fn !target slot;
  t.installs <- t.installs + 1;
  if !evict then t.evictions <- t.evictions + 1

let find_flowid t (f : Ppp_net.Flowid.t) =
  let h = home t (Ppp_net.Flowid.hash f) in
  let result = ref absent in
  let i = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < t.probe_limit do
    let s = Iarray.peek t.slots ((h + !i) land t.mask) in
    if s.s_proto = -1 then stop := true
    else if
      s.s_src = f.Ppp_net.Flowid.src && s.s_dst = f.Ppp_net.Flowid.dst
      && s.s_sport = f.Ppp_net.Flowid.sport
      && s.s_dport = f.Ppp_net.Flowid.dport
      && s.s_proto = f.Ppp_net.Flowid.proto
    then begin
      result := s.s_action;
      stop := true
    end
    else incr i
  done;
  !result
