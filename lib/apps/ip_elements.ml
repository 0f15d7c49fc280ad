open Ppp_click

let fn_check_ip_header = Ppp_hw.Fn.register "check_ip_header"
let fn_radix_ip_lookup = Ppp_hw.Fn.register "radix_ip_lookup"
let fn_dec_ip_ttl = Ppp_hw.Fn.register "dec_ip_ttl"

let check_ip_header () =
  (fun ctx pkt ->
    let fn = fn_check_ip_header in
    Ctx.touch_packet ctx pkt ~fn ~write:false ~pos:Ppp_net.Ipv4.header_offset
      ~len:Ppp_net.Ipv4.header_bytes;
    (* Header-sum verification over ten 16-bit words. *)
    Ctx.compute ctx ~fn 45;
    if Ppp_net.Ipv4.valid pkt then Element.Forward else Element.Drop)

let radix_ip_lookup ~hop_table trie =
  (fun ctx pkt ->
    let fn = fn_radix_ip_lookup in
    let dst = Ppp_net.Ipv4.dst pkt in
    let hop = Radix_trie.lookup trie ctx.Ctx.builder ~fn dst in
    Ctx.compute ctx ~fn 20;
    if hop = 0 then Element.Drop
    else begin
      let port =
        Ppp_simmem.Iarray.get hop_table ctx.Ctx.builder ~fn
          ((hop - 1) mod Ppp_simmem.Iarray.length hop_table)
        land 0xFF
      in
      (* Record the output port in the frame (MAC annotation). *)
      Ppp_net.Packet.set8 pkt 0 port;
      Ctx.touch_packet ctx pkt ~fn ~write:true ~pos:0 ~len:1;
      Element.Forward
    end)

let dec_ip_ttl () =
  (fun ctx pkt ->
    let fn = fn_dec_ip_ttl in
    if Ppp_net.Ipv4.ttl pkt <= 1 then Element.Drop
    else begin
      Ppp_net.Ipv4.decrement_ttl pkt;
      Ctx.touch_packet ctx pkt ~fn ~write:true
        ~pos:(Ppp_net.Ipv4.header_offset + 8) ~len:4;
      Ctx.compute ctx ~fn 12;
      Element.Forward
    end)

let forwarding_chain ~hop_table trie =
  [ check_ip_header (); radix_ip_lookup ~hop_table trie; dec_ip_ttl () ]
