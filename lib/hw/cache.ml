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
let sets t = t.nsets
let lines t = t.nsets * t.geo.ways
let line_of_addr t addr = addr lsr t.line_shift
let set_of_line t line = line land (t.nsets - 1)

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

(* [find] and the victim choice in one pass over the set: a hit behaves
   exactly like [find] (touch, way prediction); a miss returns the way
   [fill] must overwrite — the first invalid way, else the first-scanned
   LRU way — encoded as [-2 - slot] to keep the result an immediate int.
   This is the cache's one set scan besides [probe]'s. *)
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

(* Two-step insert protocol: [victim_slot] picks the way [fill] will
   overwrite, so the caller reads the victim's line/dirty/aux in place and
   handles writeback before filling. No eviction record is ever allocated. *)
let victim_slot t line =
  let fv = find_or_victim t line in
  if fv >= 0 then invalid_arg "Cache.victim_slot: line already resident";
  -2 - fv

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

let fold_resident t ~init f =
  let acc = ref init in
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) <> -1 then
      acc := f !acc t.tags.(i) ~dirty:(dirty t i) ~aux:t.auxs.(i)
  done;
  !acc
