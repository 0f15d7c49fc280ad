type op_kind = Compute | Read | Write | Stall | Dma

(* Mutable so [Builder.view] can refresh one pooled record in place instead
   of allocating per packet; [t] is abstract and finished traces are never
   mutated through the public surface. *)
type t = { mutable ops : int array; mutable len : int }

let make_trace ops len = { ops; len }

let kind_bits = 3
let fn_bits = 6
let payload_shift = kind_bits + fn_bits
let kind_mask = (1 lsl kind_bits) - 1
let fn_mask = (1 lsl fn_bits) - 1
let max_payload = (1 lsl (62 - payload_shift)) - 1

let encode k fn payload =
  if payload < 0 || payload > max_payload then
    invalid_arg "Trace: payload out of range";
  (payload lsl payload_shift) lor ((fn land fn_mask) lsl kind_bits) lor k

let kind_of_int = function
  | 0 -> Compute
  | 1 -> Read
  | 2 -> Write
  | 3 -> Stall
  | _ -> Dma

let length t = t.len
let kind t i = kind_of_int (t.ops.(i) land kind_mask)
let fn t i = (t.ops.(i) lsr kind_bits) land fn_mask
let payload t i = t.ops.(i) lsr payload_shift

(* Raw decode surface for the engine's hot replay loop: one array load per
   op, integer kind codes, no variant construction. [raw] is unchecked —
   callers iterate [0, length). *)
let k_compute = 0
let k_read = 1
let k_write = 2
let k_stall = 3
let k_dma = 4
let[@inline] raw t i = Array.unsafe_get t.ops i
let[@inline] raw_kind w = w land kind_mask
let[@inline] raw_fn w = (w lsr kind_bits) land fn_mask
let[@inline] raw_payload w = w lsr payload_shift

(* The whole packed vector, decoded in one step: the engine's burst loop
   grabs the array once per fetched trace and replays straight off it, so
   the per-op path is a single [Array.unsafe_get] with no record
   indirection. Aliases the trace's buffer — read-only, and only indices
   [0, length) hold ops. *)
let[@inline] raw_ops t = t.ops

let iter t f =
  for i = 0 to t.len - 1 do
    f (kind t i) (fn t i) (payload t i)
  done

let empty = { ops = [||]; len = 0 }

let mem_refs t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    let k = t.ops.(i) land kind_mask in
    if k = 1 || k = 2 then incr n
  done;
  !n

let instructions t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    match t.ops.(i) land kind_mask with
    | 0 -> n := !n + (t.ops.(i) lsr payload_shift)
    | 1 | 2 -> incr n
    | _ -> ()
  done;
  !n

module Builder = struct
  type trace = t

  type t = {
    mutable ops : int array;
    mutable len : int;
    viewed : trace;  (* pooled record refreshed and returned by [view] *)
  }

  let create ?(initial_capacity = 256) () =
    {
      ops = Array.make (Int.max 16 initial_capacity) 0;
      len = 0;
      viewed = make_trace [||] 0;
    }

  let clear b = b.len <- 0

  let push b v =
    if b.len = Array.length b.ops then begin
      let bigger = Array.make (2 * Array.length b.ops) 0 in
      Array.blit b.ops 0 bigger 0 b.len;
      b.ops <- bigger
    end;
    b.ops.(b.len) <- v;
    b.len <- b.len + 1

  let compute b ~fn n = if n > 0 then push b (encode 0 fn n)
  let read b ~fn addr = push b (encode 1 fn addr)
  let write b ~fn addr = push b (encode 2 fn addr)
  let stall b n = if n > 0 then push b (encode 3 Fn.none n)
  let dma b addr = push b (encode 4 Fn.none addr)
  let length b = b.len
  let finish b = make_trace (Array.sub b.ops 0 b.len) b.len

  (* Zero-copy, zero-allocation handoff: the returned trace is one pooled
     record per builder, refreshed in place, and its buffer aliases the
     builder's — both are valid only until the next [clear]/push on [b].
     Flow sources use this: the engine fully replays a flow's trace before
     asking that flow's source (and thus its builder) for the next one. *)
  let view b =
    b.viewed.ops <- b.ops;
    b.viewed.len <- b.len;
    b.viewed
end
