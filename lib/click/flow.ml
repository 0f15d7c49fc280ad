let fn_from_device = Ppp_hw.Fn.register "from_device"
let fn_to_device = Ppp_hw.Fn.register "to_device"
let fn_skb_recycle = Ppp_hw.Fn.register "skb_recycle"

(* The NIC side of a flow. A pipeline's egress stage has no TX ring: it
   rewrites the MAC and recycles the buffer, nothing more. *)
type nic = {
  rx_desc : int Ppp_simmem.Iarray.t;
  tx_desc : int Ppp_simmem.Iarray.t option;
  free_list : int Ppp_simmem.Iarray.t;
  buf_base : int;
  rx_slots : int;
  mutable seq : int;
}

let buf_stride = 2048

(* The allocation order fixes every address: buffers, free list, TX ring,
   RX ring. *)
let make_nic heap ~rx_slots ~tx =
  let open Ppp_simmem in
  let buf_base = Heap.alloc heap ~bytes:(rx_slots * buf_stride) in
  let free_list = Iarray.create heap ~elem_bytes:8 rx_slots 0 in
  let tx_desc =
    if tx then Some (Iarray.create heap ~elem_bytes:16 rx_slots 0) else None
  in
  let rx_desc = Iarray.create heap ~elem_bytes:16 rx_slots 0 in
  { rx_desc; tx_desc; free_list; buf_base; rx_slots; seq = 0 }

let nic heap ~rx_slots = make_nic heap ~rx_slots ~tx:false
let next_slot nic = nic.seq mod nic.rx_slots

type t = {
  label : string;
  src : Ppp_traffic.Source.t;
  reorder : Ppp_traffic.Reorder.t;
  elements : Element.t list;
  ctx : Ctx.t;
  pkt : Ppp_net.Packet.t;
  nic : nic;
  mutable forwarded : int;
  mutable dropped : int;
  item : Ppp_hw.Engine.item;
      (* [Packet] of the builder's pooled view, built once: [source] returns
         it after refreshing the view, so the steady-state packet cycle
         allocates nothing. *)
  item_idle : Ppp_hw.Engine.item;
      (* [Idle] over the same pooled view, for an exhausted source: the
         flow polls an empty input queue instead of processing a packet. *)
  item_reordered : Ppp_hw.Engine.item;
      (* [Reordered] over the same pooled view, returned when the detector
         flags the arrival as a sequence inversion: the engine routes its
         latency into the reordered histogram column. *)
}

let create ~heap ~label ~source ~elements ?(rx_slots = 64) () =
  if rx_slots <= 0 then invalid_arg "Flow.create: rx_slots must be positive";
  let ctx = Ctx.create () in
  {
    label;
    src = source;
    reorder = Ppp_traffic.Reorder.create ();
    elements;
    ctx;
    pkt = Ppp_net.Packet.create 60;
    nic = make_nic heap ~rx_slots ~tx:true;
    forwarded = 0;
    dropped = 0;
    item = Ppp_hw.Engine.Packet (Ppp_hw.Trace.Builder.view ctx.Ctx.builder);
    item_idle = Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.view ctx.Ctx.builder);
    item_reordered =
      Ppp_hw.Engine.Reordered (Ppp_hw.Trace.Builder.view ctx.Ctx.builder);
  }

let label t = t.label
let forwarded t = t.forwarded
let dropped t = t.dropped
let packet_source t = t.src
let reorders t = Ppp_traffic.Reorder.reorders t.reorder

let header_bytes = 54 (* Ethernet + IPv4 + transport ports *)

let receive nic ctx pkt =
  let open Ppp_hw.Trace in
  let b = ctx.Ctx.builder in
  let slot = nic.seq mod nic.rx_slots in
  nic.seq <- nic.seq + 1;
  pkt.Ppp_net.Packet.buf_addr <- nic.buf_base + (slot * buf_stride);
  (* NIC DMA: descriptor write-back plus the packet's payload lines. *)
  Builder.dma b (Ppp_simmem.Iarray.addr_of nic.rx_desc slot);
  let len = pkt.Ppp_net.Packet.len in
  let base = pkt.Ppp_net.Packet.buf_addr in
  let l = ref 0 in
  while !l < len do
    Builder.dma b (base + !l);
    l := !l + 64
  done;
  (* Driver: read the descriptor, prime the next one, read the headers. *)
  ignore (Ppp_simmem.Iarray.get nic.rx_desc b ~fn:fn_from_device slot : int);
  Ppp_simmem.Iarray.set nic.rx_desc b ~fn:fn_from_device slot nic.seq;
  Ctx.touch_packet ctx pkt ~fn:fn_from_device ~write:false ~pos:0
    ~len:(min header_bytes len);
  Ctx.compute ctx ~fn:fn_from_device 40;
  slot

let transmit nic ctx pkt slot =
  (match nic.tx_desc with
  | Some tx_desc ->
      Ppp_simmem.Iarray.set tx_desc ctx.Ctx.builder ~fn:fn_to_device slot
        nic.seq
  | None -> ());
  (* MAC rewrite on the first buffer line. *)
  Ctx.touch_packet ctx pkt ~fn:fn_to_device ~write:true ~pos:0 ~len:12;
  Ctx.compute ctx ~fn:fn_to_device 25

let recycle nic ctx slot =
  let b = ctx.Ctx.builder in
  ignore (Ppp_simmem.Iarray.get nic.free_list b ~fn:fn_skb_recycle slot : int);
  Ppp_simmem.Iarray.set nic.free_list b ~fn:fn_skb_recycle slot slot;
  Ctx.compute ctx ~fn:fn_skb_recycle 15

let source t (_now : int) =
  let b = t.ctx.Ctx.builder in
  Ppp_hw.Trace.Builder.clear b;
  (* The fill happens before the NIC/driver trace is built: it only writes
     the preallocated packet's bytes, and [receive] needs its length. *)
  match Ppp_traffic.Source.fill t.src t.pkt with
  | Ppp_traffic.Source.Exhausted ->
      (* Empty input queue: the flow polls and finds nothing. *)
      Ctx.compute t.ctx ~fn:fn_from_device 100;
      let (_ : Ppp_hw.Trace.t) = Ppp_hw.Trace.Builder.view b in
      t.item_idle
  | Ppp_traffic.Source.Filled ->
      let reordered =
        Ppp_traffic.Reorder.observe t.reorder
          ~flow:(Ppp_traffic.Source.last_flow t.src)
          ~seq:(Ppp_traffic.Source.last_seq t.src)
      in
      let slot = receive t.nic t.ctx t.pkt in
      (match Element.process_all t.elements t.ctx t.pkt with
      | Element.Forward ->
          transmit t.nic t.ctx t.pkt slot;
          t.forwarded <- t.forwarded + 1
      | Element.Drop -> t.dropped <- t.dropped + 1);
      recycle t.nic t.ctx slot;
      (* [view], not [finish]: the engine replays this trace to completion
         before calling us again, so the builder's buffer can be shared.
         The view is the pooled record inside [t.item] — refreshing it and
         returning the prebuilt item keeps this path allocation-free. *)
      let (_ : Ppp_hw.Trace.t) = Ppp_hw.Trace.Builder.view b in
      if reordered then t.item_reordered else t.item
