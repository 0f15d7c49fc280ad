type t = { data : Bytes.t; base : int }

let line = 64

let create heap n =
  if n <= 0 then invalid_arg "Ibuf.create: size must be positive";
  { data = Bytes.make n '\000'; base = Heap.alloc heap ~bytes:n }

let length t = Bytes.length t.data
let bytes t = t.data

let touch t b ~fn ~write ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length t.data then
    invalid_arg "Ibuf.touch: range out of bounds";
  if len > 0 then begin
    let first = (t.base + pos) / line and last = (t.base + pos + len - 1) / line in
    for l = first to last do
      let a = l * line in
      if write then Ppp_hw.Trace.Builder.write b ~fn a
      else Ppp_hw.Trace.Builder.read b ~fn a
    done
  end

let touch_read t b ~fn ~pos ~len = touch t b ~fn ~write:false ~pos ~len
let touch_write t b ~fn ~pos ~len = touch t b ~fn ~write:true ~pos ~len
