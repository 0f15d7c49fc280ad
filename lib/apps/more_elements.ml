open Ppp_click

let fn_flow_statistics = Ppp_hw.Fn.register "flow_statistics"
let fn_firewall = Ppp_hw.Fn.register "firewall"
let fn_re = Ppp_hw.Fn.register "re"
let fn_vpn = Ppp_hw.Fn.register "vpn"
let fn_syn = Ppp_hw.Fn.register "syn"

let flow_statistics table =
  let clock = ref 0 in
  (fun ctx pkt ->
    incr clock;
    Ctx.touch_packet ctx pkt ~fn:fn_flow_statistics ~write:false
      ~pos:Ppp_net.Transport.header_offset ~len:4;
    (* 5-tuple hash. *)
    Ctx.compute ctx ~fn:fn_flow_statistics 35;
    Netflow.update table ctx.Ctx.builder ~fn:fn_flow_statistics pkt
      ~now:!clock;
    Element.Forward)

let firewall fw =
  (fun ctx pkt ->
    match Firewall.check fw ctx.Ctx.builder ~fn:fn_firewall pkt with
    | Some _ -> Element.Drop
    | None -> Element.Forward)

let re_encode re =
  let out = Bytes.make 4096 '\000' in
  (fun ctx pkt ->
    let fn = fn_re in
    let pos = Ppp_net.Transport.payload_offset pkt in
    let len = pkt.Ppp_net.Packet.len - pos in
    if len <= 0 then Element.Forward
    else begin
      Ctx.touch_packet ctx pkt ~fn ~write:false ~pos ~len;
      let enc_len =
        Re.encode re ctx.Ctx.builder ~fn pkt.Ppp_net.Packet.data ~pos ~len
          ~out
      in
      let new_len = min (pos + enc_len) (Ppp_net.Packet.capacity pkt) in
      Bytes.blit out 0 pkt.Ppp_net.Packet.data pos (new_len - pos);
      Ctx.touch_packet ctx pkt ~fn ~write:true ~pos ~len:(new_len - pos);
      Ppp_net.Packet.resize pkt new_len;
      (* Fix the IP total length so the encoded packet stays well-formed. *)
      Ppp_net.Packet.set16 pkt (Ppp_net.Ipv4.header_offset + 2)
        (new_len - Ppp_net.Ipv4.header_offset);
      Element.Forward
    end)

(* Simulated footprint of the AES tables: 4 T-tables + S-box would be ~5KB;
   we touch a handful of their lines per block and charge the rest of the
   round work as compute, because L1-resident table hits behave like compute
   with respect to L3 contention. *)
let vpn_instrs_per_block = 320
let vpn_table_touches_per_block = 4

let vpn_nonce = "\x00\x01\x02\x03\x04\x05\x06\x07"

let vpn_encrypt ~heap ~key =
  let key = Aes.expand_key key in
  let counter = ref 0 in
  (* 5KB of simulated T-tables / S-box, line-granular. *)
  let tables = Ppp_simmem.Iarray.create heap ~elem_bytes:64 80 0 in
  let table_lines = Ppp_simmem.Iarray.length tables in
  (fun ctx pkt ->
    let fn = fn_vpn in
    let pos = Ppp_net.Transport.payload_offset pkt in
    let len = pkt.Ppp_net.Packet.len - pos in
    if len <= 0 then Element.Forward
    else begin
      Ctx.touch_packet ctx pkt ~fn ~write:false ~pos ~len;
      let blocks = Aes.blocks_for len in
      for blk = 0 to blocks - 1 do
        Ctx.compute ctx ~fn vpn_instrs_per_block;
        for k = 0 to vpn_table_touches_per_block - 1 do
          let line = (!counter + (blk * 7) + (k * 13)) mod table_lines in
          ignore (Ppp_simmem.Iarray.get tables ctx.Ctx.builder ~fn line : int)
        done
      done;
      Aes.ctr_transform key ~nonce:vpn_nonce ~counter:!counter
        pkt.Ppp_net.Packet.data ~pos ~len;
      counter := !counter + blocks;
      Ctx.touch_packet ctx pkt ~fn ~write:true ~pos ~len;
      Element.Forward
    end)

module Syn = struct
  type t = {
    buffer : int Ppp_simmem.Iarray.t;
    rng : Ppp_util.Rng.t;
    reads_per_packet : int;
    instrs_per_packet : int;
  }

  let create ~heap ~rng ~buffer_bytes ~reads_per_packet ~instrs_per_packet =
    if buffer_bytes < 64 then invalid_arg "Syn.create: buffer too small";
    if reads_per_packet < 0 || instrs_per_packet < 0 then
      invalid_arg "Syn.create: negative work";
    {
      buffer = Ppp_simmem.Iarray.create heap ~elem_bytes:64 (buffer_bytes / 64) 0;
      rng;
      reads_per_packet;
      instrs_per_packet;
    }

  let element t =
    let n = Ppp_simmem.Iarray.length t.buffer in
    (fun ctx _pkt ->
      Ctx.compute ctx ~fn:fn_syn t.instrs_per_packet;
      for _ = 1 to t.reads_per_packet do
        ignore
          (Ppp_simmem.Iarray.get t.buffer ctx.Ctx.builder ~fn:fn_syn
             (Ppp_util.Rng.int t.rng n)
            : int)
      done;
      Element.Forward)
end
