let make_stall_item cycles =
  let b = Ppp_hw.Trace.Builder.create ~initial_capacity:4 () in
  Ppp_hw.Trace.Builder.stall b cycles;
  Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.finish b)

let max_stall = 50_000

let l3_budget_source ~budget_l3_refs_per_sec ~hier ~core ~freq_hz inner =
  if budget_l3_refs_per_sec <= 0.0 then
    invalid_arg "Throttle: budget must be positive";
  let start = ref None in
  let consumed = ref 0.0 in
  let last = ref 0 in
  fun now ->
    let t0 = match !start with
      | Some t -> t
      | None ->
          start := Some now;
          now
    in
    let elapsed = float_of_int (now - t0) in
    (* Cycles the budget requires for the references issued so far. *)
    let required = !consumed *. freq_hz /. budget_l3_refs_per_sec in
    if required > elapsed +. 1.0 then
      make_stall_item (min max_stall (int_of_float (required -. elapsed)))
    else begin
      let item = inner now in
      (* Meter from the hardware counters: charge the L3 refs observed since
         the previous poll (the trace itself is not consulted). *)
      let refs = Ppp_hw.Counters.l3_refs (Ppp_hw.Hierarchy.counters hier core) in
      consumed := !consumed +. float_of_int (refs - !last);
      last := refs;
      item
    end

module Two_faced = struct
  let fn = Ppp_hw.Fn.register "two_faced_syn"

  let elements ~heap ~rng ~buffer_bytes ~quiet_reads ~loud_reads ~switch_after =
    let buffer =
      Ppp_simmem.Iarray.create heap ~elem_bytes:64 (max 64 (buffer_bytes / 64)) 0
    in
    let n = Ppp_simmem.Iarray.length buffer in
    let count = ref 0 in
    [
      (fun ctx _pkt ->
        incr count;
        let loud = !count > switch_after in
        let reads = if loud then loud_reads else quiet_reads in
        Ppp_click.Ctx.compute ctx ~fn (if loud then 0 else 6_000);
        for _ = 1 to reads do
          ignore
            (Ppp_simmem.Iarray.get buffer ctx.Ppp_click.Ctx.builder ~fn
               (Ppp_util.Rng.int rng n)
              : int)
        done;
        Ppp_click.Element.Forward);
    ]

  let flow ~heap ~rng ~scale ~switch_after =
    let elements =
      elements ~heap ~rng ~buffer_bytes:(12 * 1024 * 1024 / scale)
        ~quiet_reads:4 ~loud_reads:256 ~switch_after
    in
    Ppp_click.Flow.create ~heap ~label:"two-faced"
      ~source:(Ppp_traffic.Source.constant ()) ~elements ()
end
