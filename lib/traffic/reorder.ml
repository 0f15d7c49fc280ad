(* Per-flow reordering detector: track the highest sequence number seen on
   each flow; a packet arriving below its flow's high-water mark has been
   overtaken. This is the standard single-pass reordering metric (RFC 4737
   "reordered" singleton definition).

   [observe] runs once per simulated packet inside the engine hot path, so
   flow state lives in a direct-mapped cache (two int arrays indexed by
   [flow land (slots - 1)]) rather than a hash table: after [create], the
   detector never allocates. On an index collision the newcomer evicts the
   resident flow and starts a fresh high-water mark. Eviction can only
   under-count — a false reorder would need a tag match with another flow's
   mark, and tags are exact — so the zero-reorder guarantee for in-order
   sources is unconditional, and counts are exact whenever live flows fit
   in the table without aliasing (flow ids spanning less than [slots]
   always do). *)

type t = {
  mask : int;
  tags : int array; (* flow id resident in the slot; -1 = empty *)
  marks : int array; (* that flow's highest sequence seen *)
  mutable observed : int;
  mutable reorders : int;
}

let create ?(slots = 16384) () =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Reorder.create: slots must be a positive power of two";
  {
    mask = slots - 1;
    tags = Array.make slots (-1);
    marks = Array.make slots 0;
    observed = 0;
    reorders = 0;
  }

let observe t ~flow ~seq =
  t.observed <- t.observed + 1;
  let i = flow land t.mask in
  if t.tags.(i) = flow then begin
    if seq > t.marks.(i) then begin
      t.marks.(i) <- seq;
      false
    end
    else if seq < t.marks.(i) then begin
      t.reorders <- t.reorders + 1;
      true
    end
    else false (* equal: duplicate of the high-water mark *)
  end
  else begin
    (* Empty slot or eviction: either way a flow we have no state for. *)
    t.tags.(i) <- flow;
    t.marks.(i) <- seq;
    false
  end

let observed t = t.observed
let reorders t = t.reorders
