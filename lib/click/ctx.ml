type t = { builder : Ppp_hw.Trace.Builder.t }

let create () = { builder = Ppp_hw.Trace.Builder.create () }
let compute t ~fn n = Ppp_hw.Trace.Builder.compute t.builder ~fn n

let line = 64

let touch_packet t pkt ~fn ~write ~pos ~len =
  let base = pkt.Ppp_net.Packet.buf_addr in
  if base <> 0 && len > 0 then begin
    let first = (base + pos) / line and last = (base + pos + len - 1) / line in
    for l = first to last do
      let addr = l * line in
      if write then Ppp_hw.Trace.Builder.write t.builder ~fn addr
      else Ppp_hw.Trace.Builder.read t.builder ~fn addr
    done
  end
