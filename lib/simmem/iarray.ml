type 'a t = { data : 'a array; base : int; elem_bytes : int }

let line = 64

let create heap ~elem_bytes n x =
  if elem_bytes < 1 then invalid_arg "Iarray.create: elem_bytes < 1";
  if n < 0 then invalid_arg "Iarray.create: negative length";
  let base = Heap.alloc heap ~bytes:(max 1 (n * elem_bytes)) in
  { data = Array.make n x; base; elem_bytes }

let init heap ~elem_bytes n f =
  if elem_bytes < 1 then invalid_arg "Iarray.init: elem_bytes < 1";
  let base = Heap.alloc heap ~bytes:(max 1 (n * elem_bytes)) in
  { data = Array.init n f; base; elem_bytes }

let relocate heap t =
  let bytes = max 1 (Array.length t.data * t.elem_bytes) in
  { t with base = Heap.alloc heap ~bytes }

let length t = Array.length t.data
let addr_of t i = t.base + (i * t.elem_bytes)

let touch t b ~fn ~write i =
  let first = addr_of t i in
  let last = first + t.elem_bytes - 1 in
  let first_line = first / line and last_line = last / line in
  for l = first_line to last_line do
    let addr = l * line in
    if write then Ppp_hw.Trace.Builder.write b ~fn addr
    else Ppp_hw.Trace.Builder.read b ~fn addr
  done

let get t b ~fn i =
  touch t b ~fn ~write:false i;
  t.data.(i)

let set t b ~fn i x =
  touch t b ~fn ~write:true i;
  t.data.(i) <- x

let peek t i = t.data.(i)
let poke t i x = t.data.(i) <- x
