type item = Packet of Trace.t | Idle of Trace.t | Reordered of Trace.t
type source = int -> item
type flow = { core : int; label : string; source : source }

type sample = {
  s_core : int;
  s_flow : string;
  s_start : int;
  s_end : int;
  s_packets : int;
  s_delta : Counters.t;
  s_latency : Ppp_util.Histogram.t;
}

type probe = { sample_cycles : int; on_sample : sample -> unit }

type result = {
  core : int;
  label : string;
  packets : int;
  window_cycles : int;
  throughput_pps : float;
  counters : Counters.t;
  l3_refs_per_sec : float;
  l3_hits_per_sec : float;
  latency : Ppp_util.Histogram.t;
  latency_inorder : Ppp_util.Histogram.t;
  latency_reordered : Ppp_util.Histogram.t;
  engine_ops : int;
}

type core_state = {
  flow : flow;
  core : int; (* flow.core, cached to spare an indirection per memory op *)
  ctr : Counters.t; (* the core's live counters, resolved once *)
  mutable time : int;
  mutable trace : Trace.t;
  mutable len : int; (* Trace.length trace, cached for the per-op test *)
  mutable is_packet : bool;
  mutable is_reordered : bool; (* current packet arrived out of order *)
  mutable pos : int;
  mutable pkt_start : int;
  mutable packets_done : int;
  mutable ops_done : int;
  (* Counter bumps owned by the engine, hoisted out of the per-op path.
     They flush into [ctr] whenever the counters become observable: before
     any snapshot copy and before any source call (control elements read
     their own live counters to measure their rate). *)
  mutable pend_instr : int;
  mutable pend_packets : int;
  latency : Ppp_util.Histogram.t;
  (* The same window latencies split by arrival order, as flagged by the
     source ([Packet] vs [Reordered]): tail percentiles of reordered
     packets are reported separately by the traffic experiment. *)
  latency_inorder : Ppp_util.Histogram.t;
  latency_reordered : Ppp_util.Histogram.t;
  (* Window snapshots. The [warm_done]/[end_done]/[sampling] flags mirror
     the option fields: [snapshot] runs after every op, and gating it on
     booleans instead of polymorphic [= None] compares keeps two C calls
     out of the per-op path. *)
  mutable warm_done : bool;
  mutable warm_time : int;
  mutable warm_packets : int;
  mutable warm_counters : Counters.t option;
  mutable end_done : bool;
  mutable end_time : int;
  mutable end_packets : int;
  mutable end_counters : Counters.t option;
  (* Time-sliced sampling (active only under a probe, between the warm and
     end snapshots). *)
  mutable sampling : bool;
  mutable samp_time : int;
  mutable samp_packets : int;
  mutable samp_counters : Counters.t option;
  mutable samp_next : int;
  mutable samp_latency : Ppp_util.Histogram.t;
  (* The earliest simulated time at which [snapshot] could have any effect
     — the next pending boundary. Stepping compares against this single
     field instead of re-evaluating the three boundary conditions per op. *)
  mutable next_check : int;
}

let flush st =
  if st.pend_instr > 0 then begin
    Counters.add_instructions st.ctr st.pend_instr;
    st.pend_instr <- 0
  end;
  if st.pend_packets > 0 then begin
    Counters.add_packets st.ctr st.pend_packets;
    st.pend_packets <- 0
  end

let fetch st =
  flush st;
  let item = st.flow.source st.time in
  let trace, is_packet, is_reordered =
    match item with
    | Packet t -> (t, true, false)
    | Reordered t -> (t, true, true)
    | Idle t -> (t, false, false)
  in
  if Trace.length trace = 0 then
    invalid_arg "Engine: source returned an empty trace";
  st.trace <- trace;
  st.len <- Trace.length trace;
  st.is_packet <- is_packet;
  st.is_reordered <- is_reordered;
  if is_packet then st.pkt_start <- st.time;
  st.pos <- 0

let run ?probe ?attrib ?(batch = 32) hier ~flows ~warmup_cycles
    ~measure_cycles =
  if flows = [] then invalid_arg "Engine.run: no flows";
  if batch < 1 then invalid_arg "Engine.run: batch must be >= 1";
  (* Profiling is decided once per run: [prof] is the single hoisted branch
     the op path pays when attribution is off, and [at] is never touched
     behind it. *)
  let prof = match attrib with Some _ -> true | None -> false in
  let at = match attrib with Some a -> a | None -> Attrib.none in
  (match probe with
  | Some p when p.sample_cycles < 1 ->
      invalid_arg "Engine.run: sample_cycles must be >= 1"
  | _ -> ());
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f : flow) ->
      if Hashtbl.mem seen f.core then
        invalid_arg "Engine.run: two flows on the same core";
      Hashtbl.add seen f.core ())
    flows;
  let costs = Hierarchy.costs hier in
  let states =
    List.mapi
      (fun _idx (flow : flow) ->
        let st =
          {
            flow;
            core = flow.core;
            ctr = Hierarchy.counters hier flow.core;
            time = 0;
            trace = Trace.empty;
            len = 0;
            is_packet = false;
            is_reordered = false;
            pos = 0;
            pkt_start = 0;
            packets_done = 0;
            ops_done = 0;
            pend_instr = 0;
            pend_packets = 0;
            latency = Ppp_util.Histogram.create ();
            latency_inorder = Ppp_util.Histogram.create ();
            latency_reordered = Ppp_util.Histogram.create ();
            warm_done = false;
            warm_time = 0;
            warm_packets = 0;
            warm_counters = None;
            end_done = false;
            end_time = 0;
            end_packets = 0;
            end_counters = None;
            sampling = false;
            samp_time = 0;
            samp_packets = 0;
            samp_counters = None;
            samp_next = max_int;
            samp_latency = Ppp_util.Histogram.create ();
            next_check = 0;
          }
        in
        fetch st;
        st)
      flows
    |> Array.of_list
  in
  let n = Array.length states in
  let window_end = warmup_cycles + measure_cycles in
  (* Sample boundaries live on the fixed grid warmup + i*K of simulated
     time. Slices telescope — each one's delta is taken between consecutive
     counter snapshots — so per-core slice deltas sum exactly to the
     window's [Counters.diff] no matter where ops land on the grid. *)
  let grid_next time =
    match probe with
    | None -> max_int
    | Some p ->
        let k = p.sample_cycles in
        warmup_cycles + ((((time - warmup_cycles) / k) + 1) * k)
  in
  let emit st ~t_end counters_now =
    match (probe, st.samp_counters) with
    | Some p, Some prev when t_end > st.samp_time ->
        p.on_sample
          {
            s_core = st.flow.core;
            s_flow = st.flow.label;
            s_start = st.samp_time;
            s_end = t_end;
            s_packets = st.packets_done - st.samp_packets;
            s_delta = Counters.diff counters_now prev;
            s_latency = st.samp_latency;
          };
        st.samp_time <- t_end;
        st.samp_packets <- st.packets_done;
        st.samp_counters <- Some counters_now;
        st.samp_latency <- Ppp_util.Histogram.create ()
    | _ -> ()
  in
  let snapshot st =
    if (not st.warm_done) && st.time >= warmup_cycles then begin
      st.warm_done <- true;
      st.warm_time <- st.time;
      st.warm_packets <- st.packets_done;
      flush st;
      let c = Counters.copy st.ctr in
      st.warm_counters <- Some c;
      match probe with
      | Some _ ->
          st.sampling <- true;
          st.samp_time <- st.warm_time;
          st.samp_packets <- st.warm_packets;
          st.samp_counters <- Some c;
          st.samp_next <- grid_next st.warm_time
      | None -> ()
    end;
    if (not st.end_done) && st.time >= window_end then begin
      st.end_done <- true;
      st.end_time <- st.time;
      st.end_packets <- st.packets_done;
      flush st;
      let c = Counters.copy st.ctr in
      st.end_counters <- Some c;
      (* Close the trailing partial slice at the window end and stop. *)
      emit st ~t_end:st.end_time c;
      st.sampling <- false;
      st.samp_counters <- None
    end
    else if (not st.end_done) && st.sampling && st.time >= st.samp_next then begin
      flush st;
      emit st ~t_end:st.time (Counters.copy st.ctr);
      st.samp_next <- grid_next st.time
    end;
    st.next_check <-
      (if not st.warm_done then warmup_cycles
       else if st.end_done then max_int
       else if st.sampling && st.samp_next < window_end then st.samp_next
       else window_end)
  in
  (* One burst: execute a run of the heap root's trace ops entirely on
     locals — no record stores, no heap fix-up, no repeated trace indexing
     — until the root's clock reaches [bound] or [batch] ops have run.
     [bound] is the exclusive time horizon up to which the root is
     guaranteed to remain the globally least-advanced core, so every op
     executed here lands in exactly the slot the per-op scheduler would
     have given it. [batch] only shortens a run whose order is already
     fixed by (time, idx): it can never change an observable result, it
     just tunes how much work amortizes each heap fix-up and write-back.

     The boundary machinery is folded into a single local limit:
     [stop = min bound next_check], so the tight loop spends one compare
     per op on scheduling, snapshots, sampling and window edges combined
     (the per-op engine paid a separate snapshot check here). *)
  let burst st bound =
    let core = st.core in
    let ops = ref (Trace.raw_ops st.trace) in
    let len = ref st.len in
    let pos = ref st.pos in
    let time = ref st.time in
    let pend_instr = ref st.pend_instr in
    let budget = ref batch in
    let stop =
      ref (let nc = st.next_check in if nc < bound then nc else bound)
    in
    (* Whether ops executed now land inside the measurement window. The
       flag flips only at snapshot calls — the inner loop exits before any
       op past [next_check] runs — so refreshing it after each snapshot
       site keeps window attribution exactly aligned with the counter
       copies ([Counters.diff] boundary semantics). Only read when [prof]. *)
    let in_w = ref (st.warm_done && not st.end_done) in
    let running = ref true in
    while !running do
      while !time < !stop && !budget > 0 do
        decr budget;
        let w = Array.unsafe_get !ops !pos in
        let kc = Trace.raw_kind w in
        if kc = Trace.k_read || kc = Trace.k_write then begin
          let fn = Trace.raw_fn w in
          let lat =
            Hierarchy.access hier ~core ~write:(kc = Trace.k_write) ~fn
              ~addr:(Trace.raw_payload w) ~now:!time
          in
          if prof then
            Attrib.op at ~core ~fn ~instrs:1 ~cycles:lat ~in_window:!in_w;
          time := !time + lat
        end
        else if kc = Trace.k_compute then begin
          let payload = Trace.raw_payload w in
          pend_instr := !pend_instr + payload;
          let dt = Costs.compute_cycles costs payload in
          if prof then
            Attrib.op at ~core ~fn:(Trace.raw_fn w) ~instrs:payload ~cycles:dt
              ~in_window:!in_w;
          time := !time + dt
        end
        else if kc = Trace.k_stall then begin
          let dt = Trace.raw_payload w in
          if prof then
            Attrib.op at ~core ~fn:(Trace.raw_fn w) ~instrs:0 ~cycles:dt
              ~in_window:!in_w;
          time := !time + dt
        end
        else Hierarchy.dma_write hier ~addr:(Trace.raw_payload w) ~now:!time;
        incr pos;
        if !pos >= !len then begin
          (* End of trace. The bookkeeping and the source may read engine
             state (control elements read their own live counters), so the
             locals go back into [st] first; and the snapshot check must
             run before [fetch] — a monitor's probe callback feeds the
             throttle that the source consults (the closed loop). All of
             this is per-packet work, off the per-op path. *)
          st.time <- !time;
          st.pos <- !pos;
          st.pend_instr <- !pend_instr;
          if st.is_packet then begin
            st.packets_done <- st.packets_done + 1;
            st.pend_packets <- st.pend_packets + 1;
            (* Latency tracked for packets completing inside the window. *)
            if st.warm_done && not st.end_done then begin
              Ppp_util.Histogram.record st.latency (!time - st.pkt_start);
              Ppp_util.Histogram.record
                (if st.is_reordered then st.latency_reordered
                 else st.latency_inorder)
                (!time - st.pkt_start);
              (* The packet belongs to the slice that closes at or after
                 this completion time. *)
              if st.sampling then
                Ppp_util.Histogram.record st.samp_latency
                  (!time - st.pkt_start)
            end
          end;
          (* The per-tag latency commit uses the same gate as the
             window latency record above, read before the snapshot runs. *)
          if prof then
            Attrib.finish_trace at ~core
              ~record:(st.is_packet && st.warm_done && not st.end_done);
          if !time >= st.next_check then begin
            snapshot st;
            in_w := st.warm_done && not st.end_done
          end;
          fetch st;
          ops := Trace.raw_ops st.trace;
          len := st.len;
          pos := 0;
          pend_instr := st.pend_instr;
          stop := (let nc = st.next_check in if nc < bound then nc else bound)
        end
      done;
      st.time <- !time;
      st.pos <- !pos;
      st.pend_instr <- !pend_instr;
      (* Crossing [next_check] mid-trace snapshots here, after the op that
         crossed and before any other core runs — same instant as the
         per-op engine. The snapshot flushes pending counters, so the
         local accumulator must restart from the flushed field. *)
      if !time >= st.next_check then begin
        snapshot st;
        pend_instr := st.pend_instr;
        in_w := st.warm_done && not st.end_done
      end;
      let nc = st.next_check in
      stop := (if nc < bound then nc else bound);
      if !time >= bound || !budget = 0 then begin
        (* [ops_done] feeds only the final result, so it is settled once
           per burst rather than once per op. *)
        st.ops_done <- st.ops_done + (batch - !budget);
        running := false
      end
    done
  in
  (* Scheduling: a flat array of core clocks in input order, scanned once
     per burst for the minimum and second-minimum. The scan order makes the
     (time, idx) tie-break implicit — a strict [<] keeps the first (lowest
     index) of equal clocks — so the pick is exactly the per-op engine's.
     With bursting, the scan runs once per ~batch of ops; for the core
     counts the simulator models (a machine's worth, not thousands) a scan
     over one cache line of ints beats a pointer-chasing heap, and it
     yields the run-ahead horizon (the second-smallest key) for free. *)
  let times = Array.make n 0 in
  for i = 0 to n - 1 do
    times.(i) <- states.(i).time
  done;
  let continue_ = ref true in
  while !continue_ do
    (* One pass: [m] the scheduled core (first minimum), [st2] the
       second-smallest clock, [s] its index. *)
    let m = ref 0 in
    let mt = ref (Array.unsafe_get times 0) in
    let s = ref 0 in
    let st2 = ref max_int in
    for i = 1 to n - 1 do
      let t = Array.unsafe_get times i in
      if t < !mt then begin
        s := !m;
        st2 := !mt;
        m := i;
        mt := t
      end
      else if t < !st2 then begin
        s := i;
        st2 := t
      end
    done;
    if !mt >= window_end then continue_ := false
    else begin
      let st = Array.unsafe_get states !m in
      (* Run-ahead horizon: the scheduled core stays the global minimum
         while its (time, idx) key is below the runner-up's. When the
         runner-up has the larger index, the scheduled core also wins the
         tie at [st2] itself, extending the horizon one cycle. *)
      let bound =
        if n = 1 then window_end
        else if !m < !s then
          if !st2 >= window_end then window_end
          else if !st2 = max_int then window_end
          else Int.min window_end (!st2 + 1)
        else Int.min window_end !st2
      in
      burst st bound;
      Array.unsafe_set times !m st.time
    end
  done;
  (* Finalize any snapshot not yet taken (time passed end during final op). *)
  Array.iter snapshot states;
  Array.to_list
    (Array.map
       (fun st ->
         let warm =
           match st.warm_counters with
           | Some c -> c
           | None -> assert false
         in
         let finish =
           match st.end_counters with Some c -> c | None -> assert false
         in
         let ctr = Counters.diff finish warm in
         let cycles = Int.max 1 (st.end_time - st.warm_time) in
         let seconds = Costs.cycles_to_seconds costs cycles in
         let packets = st.end_packets - st.warm_packets in
         if prof then
           Attrib.set_window at ~core:st.core ~start:st.warm_time
             ~cycles:(st.end_time - st.warm_time) ~counters:ctr;
         {
           core = st.flow.core;
           label = st.flow.label;
           packets;
           window_cycles = cycles;
           throughput_pps = float_of_int packets /. seconds;
           counters = ctr;
           l3_refs_per_sec = float_of_int (Counters.l3_refs ctr) /. seconds;
           l3_hits_per_sec = float_of_int (Counters.l3_hits ctr) /. seconds;
           latency = st.latency;
           latency_inorder = st.latency_inorder;
           latency_reordered = st.latency_reordered;
           engine_ops = st.ops_done;
         })
       states)
