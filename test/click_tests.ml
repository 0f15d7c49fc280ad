open Ppp_click

let heap () = Ppp_simmem.Heap.create ~node:0

(* --- Element / pipeline --- *)

let counting_element hits _ctx _pkt =
  incr hits;
  Element.Forward

let dropping_element () _ _ = Element.Drop

let test_chain_runs_in_order () =
  let trace = ref [] in
  let el name _ _ =
    trace := name :: !trace;
    Element.Forward
  in
  let ctx = Ctx.create () in
  let p = Ppp_net.Packet.create 60 in
  let v = Element.process_all [ el "a"; el "b"; el "c" ] ctx p in
  Alcotest.(check bool) "forwarded" true (v = Element.Forward);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !trace)

let test_chain_stops_at_drop () =
  let after = ref 0 in
  let ctx = Ctx.create () in
  let p = Ppp_net.Packet.create 60 in
  let v =
    Element.process_all
      [ dropping_element (); counting_element after ]
      ctx p
  in
  Alcotest.(check bool) "dropped" true (v = Element.Drop);
  Alcotest.(check int) "later elements skipped" 0 !after

let test_ctx_touch_packet_lines () =
  let ctx = Ctx.create () in
  let p = Ppp_net.Packet.create 200 in
  p.Ppp_net.Packet.buf_addr <- 0x10000;
  Ctx.touch_packet ctx p ~fn:Ppp_hw.Fn.none ~write:false ~pos:0 ~len:130;
  let t = Ppp_hw.Trace.Builder.finish ctx.Ctx.builder in
  Alcotest.(check int) "130B = 3 lines" 3 (Ppp_hw.Trace.length t)

let test_ctx_touch_unplaced_packet_noop () =
  let ctx = Ctx.create () in
  let p = Ppp_net.Packet.create 200 in
  Ctx.touch_packet ctx p ~fn:Ppp_hw.Fn.none ~write:false ~pos:0 ~len:64;
  Alcotest.(check int) "no refs for unplaced packet" 0
    (Ppp_hw.Trace.Builder.length ctx.Ctx.builder)

(* --- Flow --- *)

let constant () = Ppp_traffic.Source.constant ()

let test_flow_produces_packet_traces () =
  let hits = ref 0 in
  let flow =
    Flow.create ~heap:(heap ()) ~label:"t" ~source:(constant ())
      ~elements:[ counting_element hits ] ()
  in
  let source = Flow.source flow in
  (match source 0 with
  | Ppp_hw.Engine.Packet t | Ppp_hw.Engine.Reordered t ->
      Alcotest.(check bool) "has DMA ops" true
        (let dmas = ref 0 in
         Ppp_hw.Trace.iter t (fun k _ _ -> if k = Ppp_hw.Trace.Dma then incr dmas);
         !dmas >= 2);
      Alcotest.(check bool) "has refs" true (Ppp_hw.Trace.mem_refs t > 0)
  | Ppp_hw.Engine.Idle _ -> Alcotest.fail "expected a packet item");
  Alcotest.(check int) "element saw the packet" 1 !hits;
  Alcotest.(check int) "forwarded" 1 (Flow.forwarded flow)

let test_flow_counts_drops () =
  let flow =
    Flow.create ~heap:(heap ()) ~label:"t" ~source:(constant ())
      ~elements:[ dropping_element () ] ()
  in
  let source = Flow.source flow in
  ignore (source 0);
  ignore (source 100);
  Alcotest.(check int) "drops counted" 2 (Flow.dropped flow);
  Alcotest.(check int) "nothing forwarded" 0 (Flow.forwarded flow)

let test_flow_buffer_rotation () =
  let flow =
    Flow.create ~heap:(heap ()) ~label:"t" ~source:(constant ())
      ~elements:[] ~rx_slots:4 ()
  in
  let source = Flow.source flow in
  let addr_of item =
    match item with
    | Ppp_hw.Engine.Packet t ->
        (* First DMA op is the descriptor; second is the buffer. *)
        let addrs = ref [] in
        Ppp_hw.Trace.iter t (fun k _ p ->
            if k = Ppp_hw.Trace.Dma then addrs := p :: !addrs);
        List.nth (List.rev !addrs) 1
    | _ -> Alcotest.fail "packet expected"
  in
  let a0 = addr_of (source 0) in
  let a1 = addr_of (source 1) in
  Alcotest.(check bool) "distinct buffers" true (a0 <> a1);
  ignore (source 2);
  ignore (source 3);
  Alcotest.(check int) "wraps to first buffer" a0 (addr_of (source 4))

(* --- Staged --- *)

let test_staged_requires_two_stages () =
  Alcotest.check_raises "one stage"
    (Invalid_argument "Staged.create: need at least two stages") (fun () ->
      ignore
        (Staged.create ~heap:(heap ()) ~source:(constant ())
           ~stages:[ [] ] ()))

let test_staged_pipeline_flows_packets () =
  let seen0 = ref 0 and seen1 = ref 0 in
  let staged =
    Staged.create ~heap:(heap ()) ~source:(constant ())
      ~stages:
        [ [ counting_element seen0 ]; [ counting_element seen1 ] ]
      ~queue_slots:4 ()
  in
  let sources = Staged.sources staged in
  Alcotest.(check int) "two sources" 2 (Array.length sources);
  (* Drive by hand: stage1 starves until stage0 pushes. *)
  (match sources.(1) 0 with
  | Ppp_hw.Engine.Idle _ -> ()
  | Ppp_hw.Engine.Packet _ | Ppp_hw.Engine.Reordered _ ->
      Alcotest.fail "consumer should starve");
  ignore (sources.(0) 10);
  (match sources.(1) 20 with
  | Ppp_hw.Engine.Packet _ | Ppp_hw.Engine.Reordered _ -> ()
  | Ppp_hw.Engine.Idle _ -> Alcotest.fail "consumer should have work");
  Alcotest.(check int) "stage0 processed" 1 !seen0;
  Alcotest.(check int) "stage1 processed" 1 !seen1;
  Alcotest.(check int) "egress counted" 1 (Staged.forwarded staged)

let test_staged_backpressure () =
  let staged =
    Staged.create ~heap:(heap ()) ~source:(constant ())
      ~stages:[ []; [] ] ~queue_slots:2 ()
  in
  let sources = Staged.sources staged in
  ignore (sources.(0) 0);
  ignore (sources.(0) 1);
  (* Queue full: producer must idle. *)
  match sources.(0) 2 with
  | Ppp_hw.Engine.Idle _ -> ()
  | Ppp_hw.Engine.Packet _ | Ppp_hw.Engine.Reordered _ ->
      Alcotest.fail "expected backpressure"

let test_staged_exhausted_source_idles () =
  let source =
    Ppp_traffic.Source.make
      ~fill:(fun _ _ -> Ppp_traffic.Source.Exhausted)
      ()
  in
  let seen = ref 0 in
  let staged =
    Staged.create ~heap:(heap ()) ~source
      ~stages:[ [ counting_element seen ]; [] ]
      ()
  in
  let sources = Staged.sources staged in
  for now = 0 to 3 do
    match sources.(0) now with
    | Ppp_hw.Engine.Idle _ -> ()
    | Ppp_hw.Engine.Packet _ | Ppp_hw.Engine.Reordered _ ->
        Alcotest.fail "an exhausted source must idle stage 0"
  done;
  Alcotest.(check int) "no packet processed" 0 !seen;
  Alcotest.(check int) "nothing forwarded" 0 (Staged.forwarded staged)

let tests =
  [
    Alcotest.test_case "chain order" `Quick test_chain_runs_in_order;
    Alcotest.test_case "chain stops at drop" `Quick test_chain_stops_at_drop;
    Alcotest.test_case "ctx touch lines" `Quick test_ctx_touch_packet_lines;
    Alcotest.test_case "ctx unplaced noop" `Quick test_ctx_touch_unplaced_packet_noop;
    Alcotest.test_case "flow packet traces" `Quick test_flow_produces_packet_traces;
    Alcotest.test_case "flow counts drops" `Quick test_flow_counts_drops;
    Alcotest.test_case "flow buffer rotation" `Quick test_flow_buffer_rotation;
    Alcotest.test_case "staged needs two stages" `Quick test_staged_requires_two_stages;
    Alcotest.test_case "staged pipeline flow" `Quick test_staged_pipeline_flows_packets;
    Alcotest.test_case "staged backpressure" `Quick test_staged_backpressure;
    Alcotest.test_case "staged exhausted source idles" `Quick
      test_staged_exhausted_source_idles;
  ]
