open Ppp_simmem

type queue = {
  ring : int Iarray.t; (* one 64B handoff slot per entry *)
  fifo : int Queue.t; (* buffer slots in flight *)
  slots : int;
  mutable pushed : int;
  mutable popped : int;
}

type stage = {
  elements : Element.t list;
  ctx : Ctx.t;
  index : int;
}

type t = {
  source : Ppp_traffic.Source.t;
  nic : Flow.nic;
  stages : stage array;
  queues : queue array;
  pool : Ppp_net.Packet.t array; (* one packet per buffer slot *)
  mutable forwarded : int;
  mutable dropped : int;
}

let stall_cycles = 120
let header_bytes = 54

let create ~heap ~source ~stages ?(queue_slots = 32) () =
  let n = List.length stages in
  if n < 2 then invalid_arg "Staged.create: need at least two stages";
  if queue_slots <= 0 then invalid_arg "Staged.create: queue_slots";
  let rx_slots = (queue_slots * (n - 1)) + (4 * n) + 8 in
  let nic = Flow.nic heap ~rx_slots in
  let queues =
    Array.init (n - 1) (fun _ ->
        {
          ring = Iarray.create heap ~elem_bytes:64 queue_slots 0;
          fifo = Queue.create ();
          slots = queue_slots;
          pushed = 0;
          popped = 0;
        })
  in
  let stages =
    Array.of_list
      (List.mapi
         (fun index elements -> { elements; ctx = Ctx.create (); index })
         stages)
  in
  {
    source;
    nic;
    stages;
    queues;
    pool = Array.init rx_slots (fun _ -> Ppp_net.Packet.create 60);
    forwarded = 0;
    dropped = 0;
  }

let forwarded t = t.forwarded
let dropped t = t.dropped

let queue_full q = Queue.length q.fifo >= q.slots

let push_queue t q ctx slot =
  let i = q.pushed mod q.slots in
  q.pushed <- q.pushed + 1;
  Iarray.set q.ring ctx.Ctx.builder ~fn:Flow.fn_to_device i
    t.pool.(slot).Ppp_net.Packet.buf_addr;
  Queue.push slot q.fifo

let pop_queue t q ctx =
  let i = q.popped mod q.slots in
  q.popped <- q.popped + 1;
  let slot = Queue.pop q.fifo in
  let pkt = t.pool.(slot) in
  ignore (Iarray.get q.ring ctx.Ctx.builder ~fn:Flow.fn_from_device i : int);
  (* The consumer re-reads the packet headers written upstream. *)
  Ctx.touch_packet ctx pkt ~fn:Flow.fn_from_device ~write:false ~pos:0
    ~len:(min header_bytes pkt.Ppp_net.Packet.len);
  slot

let idle ctx =
  let b = ctx.Ctx.builder in
  Ppp_hw.Trace.Builder.clear b;
  Ppp_hw.Trace.Builder.stall b stall_cycles;
  Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.finish b)

let process t stage ~outq slot =
  let b = stage.ctx.Ctx.builder in
  let pkt = t.pool.(slot) in
  match Element.process_all stage.elements stage.ctx pkt with
  | Element.Drop ->
      t.dropped <- t.dropped + 1;
      Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.finish b)
  | Element.Forward -> (
      match outq with
      | Some q ->
          push_queue t q stage.ctx slot;
          Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.finish b)
      | None ->
          (* The egress stage completes the packet and recycles its buffer
             into the receiving core's pool: shared free-list lines written
             by the transmitting core (the paper's extra synchronization
             cost of pipelining). *)
          Flow.transmit t.nic stage.ctx pkt slot;
          Flow.recycle t.nic stage.ctx slot;
          t.forwarded <- t.forwarded + 1;
          Ppp_hw.Engine.Packet (Ppp_hw.Trace.Builder.finish b))

let stage_source t stage (_now : int) =
  let b = stage.ctx.Ctx.builder in
  let last = Array.length t.stages - 1 in
  let inq = if stage.index = 0 then None else Some t.queues.(stage.index - 1) in
  let outq = if stage.index = last then None else Some t.queues.(stage.index) in
  let input_ready =
    match inq with None -> true | Some q -> not (Queue.is_empty q.fifo)
  in
  let output_ready = match outq with None -> true | Some q -> not (queue_full q) in
  if not (input_ready && output_ready) then idle stage.ctx
  else
    match inq with
    | Some q ->
        Ppp_hw.Trace.Builder.clear b;
        process t stage ~outq (pop_queue t q stage.ctx)
    | None -> (
        let slot = Flow.next_slot t.nic in
        match Ppp_traffic.Source.fill t.source t.pool.(slot) with
        | Ppp_traffic.Source.Exhausted -> idle stage.ctx
        | Ppp_traffic.Source.Filled ->
            Ppp_hw.Trace.Builder.clear b;
            process t stage ~outq (Flow.receive t.nic stage.ctx t.pool.(slot)))

let sources t = Array.map (fun st -> stage_source t st) t.stages
