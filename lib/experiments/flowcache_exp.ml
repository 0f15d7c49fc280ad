open Ppp_core

type cell = {
  scenario : string;  (* "solo" or "vs 5 SYN_MAX" *)
  plain_pps : float;  (* IP forwarding via the trie *)
  cached_pps : float;  (* IP forwarding via [lookup_element] *)
  speedup : float;  (* cached / plain *)
  hit_rate : float;  (* flow-cache hit rate in the cached run *)
}

type data = { cells : cell list }

(* A smaller flow universe than MON's so the cache converges within the
   measurement window (packets per flow >> 1); a realistic edge-router
   setting where a moderate number of heavy flows dominates. *)
let universe = 2000

let fn_cached_ip_lookup = Ppp_hw.Fn.register "cached_ip_lookup"

let lookup_element table ~trie ~hop_table =
  let fn = fn_cached_ip_lookup in
  (fun ctx pkt ->
    let b = ctx.Ppp_click.Ctx.builder in
    let cached = Ppp_classify.Flow_table.find table b ~fn pkt in
    Ppp_click.Ctx.compute ctx ~fn 12;
    let port =
      if cached <> Ppp_classify.Flow_table.absent then cached
      else
        let hop =
          Ppp_apps.Radix_trie.lookup trie b ~fn (Ppp_net.Ipv4.dst pkt)
        in
        if hop = 0 then -1 (* unrouted: dropped, never installed *)
        else begin
          let port =
            Ppp_simmem.Iarray.get hop_table b ~fn
              ((hop - 1) mod Ppp_simmem.Iarray.length hop_table)
            land 0xFF
          in
          Ppp_classify.Flow_table.install table b ~fn
            (Ppp_net.Flowid.of_packet pkt) port;
          port
        end
    in
    if port < 0 then Ppp_click.Element.Drop
    else begin
      Ppp_net.Packet.set8 pkt 0 port;
      Ppp_click.Ctx.touch_packet ctx pkt ~fn ~write:true ~pos:0 ~len:1;
      Ppp_click.Element.Forward
    end)

(* Build an IP flow whose lookup element is either the plain trie chain or
   the cached lookup; identical trie, traffic and state sizes. *)
let build_flow ~params ~heap ~rng ~cached =
  let { Ppp_apps.Route_pool.pool; trie; hop_table } =
    Ppp_apps.App.ip_substrate ~heap
      ~scale:params.Runner.config.Ppp_hw.Machine.scale
  in
  let source =
    Ppp_apps.App.tuple_source ~rng:(Ppp_util.Rng.split rng) ~pool
      ~flows:universe ~wire:64 ~payload:Ppp_apps.App.no_payload
  in
  if not cached then
    ( Ppp_click.Flow.create ~heap ~label:"IP" ~source
        ~elements:(Ppp_apps.Ip_elements.forwarding_chain ~hop_table trie)
        (),
      None )
  else begin
    (* 4,096 slots of 32 B: 128 KiB, two universes' worth of flows. *)
    let table =
      Ppp_classify.Flow_table.create ~heap ~entries:(2 * universe) ()
    in
    let elements =
      [
        Ppp_apps.Ip_elements.check_ip_header ();
        lookup_element table ~trie ~hop_table;
        Ppp_apps.Ip_elements.dec_ip_ttl ();
      ]
    in
    ( Ppp_click.Flow.create ~heap ~label:"IP+cache" ~source
        ~elements (),
      Some table )
  end

let run_one ~params ~cached ~with_competitors =
  let results, table =
    Runner.run_with ~params (fun hier ~heaps ~rng ->
        let heap = heaps.(0) in
        let flow, table =
          build_flow ~params ~heap ~rng:(Ppp_util.Rng.split rng) ~cached
        in
        let competitors =
          if with_competitors then
            Exp_common.co_runners ~params Ppp_apps.App.syn_max hier ~heaps
              ~rng
          else []
        in
        ( { Ppp_hw.Engine.core = 0; label = "t";
            source = Ppp_click.Flow.source flow }
          :: competitors,
          table ))
  in
  let pps = (List.hd results).Ppp_hw.Engine.throughput_pps in
  let hit_rate =
    match table with
    | None -> 0.0
    | Some table ->
        let h = Ppp_classify.Flow_table.hits table
        and m = Ppp_classify.Flow_table.misses table in
        float_of_int h /. float_of_int (max 1 (h + m))
  in
  (pps, hit_rate)

let measure ?(params = Runner.Params.default) () =
  let cell scenario with_competitors =
    let run_one ~cached =
      let label =
        Printf.sprintf "flowcache/%s/%s"
          (if with_competitors then "contended" else "solo")
          (if cached then "cached" else "plain")
      in
      run_one ~params:(Runner.Params.with_cell label params) ~cached
        ~with_competitors
    in
    let plain, _ = run_one ~cached:false in
    if plain <= 0.0 then
      invalid_arg
        "Flowcache_exp: plain LPM baseline completed no packets in its \
         measurement window";
    let cached, hit_rate = run_one ~cached:true in
    { scenario; plain_pps = plain; cached_pps = cached; speedup = cached /. plain; hit_rate }
  in
  { cells = [ cell "solo" false; cell "vs 5 SYN_MAX" true ] }

let columns =
  Output.
    [
      col "scenario" "scenario" str (fun c -> c.scenario);
      col "plain_pps" "plain pps" f0 (fun c -> c.plain_pps);
      col "cached_pps" "cached pps" f0 (fun c -> c.cached_pps);
      col "speedup" "speedup" (num (Printf.sprintf "%.2fx")) (fun c ->
          c.speedup);
      col "hit_rate" "cache hit rate (%)" pct (fun c -> c.hit_rate);
    ]

let render data =
  let solo = List.hd data.cells and contended = List.nth data.cells 1 in
  Output.text_table
    ~title:"Flow-cache fast path: speedup over plain LPM, solo vs contended"
    columns data.cells
  ^ Printf.sprintf
      "\nthe fast path's advantage moves from %.2fx (solo) to %.2fx under \
       contention: every avoided trie reference is one whose cost \
       contention inflated, so shrinking a flow's reference footprint is a \
       contention-mitigation lever.\n"
      solo.speedup contended.speedup

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(Output.table columns data.cells)
