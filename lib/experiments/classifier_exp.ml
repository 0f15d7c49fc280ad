open Ppp_core

type cell = {
  backend : string;
  rules : int;
  skew : float;
  hit_rate : float;
  upcalls_per_packet : float;
  lookups : int;
  hits : int;
  upcalls : int;
  installs : int;
  evictions : int;
  solo_pps : float;
  drop : float;
  l3_refs_per_sec : float;
}

type data = { cells : cell list }

(* Rule-set sizes and skews of the sweep. Sizes scale down with the machine
   like every other working set in the repo so the tiny config stays fast. *)
let rule_sizes scale = [ max 16 (1024 / scale); max 64 (8192 / scale) ]
let skews = [ 0.0; 1.1 ]

(* Traffic universe: a fixed set of flows, each drawn inside a known rule's
   hypercube, ranked by Zipf popularity. The flow table holds a quarter of
   the universe, so the uniform sweep thrashes it while the skewed one
   concentrates on a cacheable hot set — the knob that moves hit rate. *)
let universe scale = max 256 (16384 / scale)

let build_flow ~(params : Runner.params) ~heap ~rng ~backend ~nrules =
  let config = params.Runner.config in
  let scale = config.Ppp_hw.Machine.scale in
  let u = universe scale in
  let rules = Ppp_classify.Rulegen.make ~rng:(Ppp_util.Rng.split rng) ~n:nrules in
  let fp =
    Ppp_classify.Fastpath.create ~heap ~table_entries:(max 16 (u / 4)) ~backend
      rules
  in
  (* Precompute one concrete flow id per rank. Traffic is UDP (the packet
     generator writes UDP headers), so ranks that land on a TCP-only rule
     use the catch-all instead — every flow still has a known matching
     rule. *)
  let frng = Ppp_util.Rng.split rng in
  let flowids =
    Array.init u (fun i ->
        let r = rules.(Ppp_util.Hashes.fnv1a_int i mod nrules) in
        let r =
          if r.Ppp_classify.Rule.proto = Ppp_net.Ipv4.proto_tcp then
            rules.(nrules - 1)
          else r
        in
        let f = Ppp_classify.Rulegen.flowid_matching ~rng:frng r in
        { f with Ppp_net.Flowid.proto = Ppp_net.Ipv4.proto_udp })
  in
  let zipf = ref (Ppp_traffic.Zipf.create ~n:u ~s:0.0) in
  let gen_rng = Ppp_util.Rng.split rng in
  let seqs = Array.make u 0 in
  let source =
    Ppp_traffic.Source.make ~name:"zipf-rules"
      ~fill:(fun s pkt ->
        let i = Ppp_traffic.Zipf.sample !zipf gen_rng in
        let f = flowids.(i) in
        Ppp_traffic.Gen.fill_ipv4_udp pkt ~src:f.Ppp_net.Flowid.src
          ~dst:f.Ppp_net.Flowid.dst ~sport:f.Ppp_net.Flowid.sport
          ~dport:f.Ppp_net.Flowid.dport ~wire_len:64;
        let seq = seqs.(i) in
        seqs.(i) <- seq + 1;
        Ppp_traffic.Source.set_meta s ~flow:i ~seq;
        Ppp_traffic.Source.Filled)
      ()
  in
  let elements =
    [
      Ppp_apps.Ip_elements.check_ip_header ();
      Ppp_classify.Fastpath.element fp;
      Ppp_apps.Ip_elements.dec_ip_ttl ();
    ]
  in
  let flow =
    Ppp_click.Flow.create ~heap ~label:"classifier" ~source ~elements ()
  in
  let set_skew s = zipf := Ppp_traffic.Zipf.create ~n:u ~s in
  (flow, fp, set_skew)

(* One engine run: the classification flow on core 0, optionally fronted by
   up to 5 SYN_MAX competitors on the same socket (the fig2 co-run shape).
   Competitors are built after the target from the same stream, so the
   target's simulation is identical in both runs. *)
let run_one ~(params : Runner.params) ~backend ~nrules ~skew ~contended =
  let results, fp =
    Runner.run_with ~params (fun hier ~heaps ~rng ->
        let heap = heaps.(0) in
        let flow, fp, set_skew =
          build_flow ~params ~heap ~rng:(Ppp_util.Rng.split rng) ~backend
            ~nrules
        in
        set_skew skew;
        let target =
          { Ppp_hw.Engine.core = 0; label = "classifier";
            source = Ppp_click.Flow.source flow }
        in
        let competitors =
          if contended then
            Exp_common.co_runners ~params Ppp_apps.App.syn_max hier ~heaps
              ~rng
          else []
        in
        (target :: competitors, fp))
  in
  (List.hd results, fp)

let measure ?(params = Runner.Params.default) () =
  let scale = params.Runner.config.Ppp_hw.Machine.scale in
  let cells =
    List.concat_map
      (fun backend ->
        List.concat_map
          (fun nrules ->
            List.map (fun skew -> (backend, nrules, skew)) skews)
          (rule_sizes scale))
      Ppp_classify.Classifier.all
  in
  let cell (backend, nrules, skew) =
    let bname = Ppp_classify.Classifier.kind_name backend in
    let label = Printf.sprintf "classifier/%s/%d/%.1f" bname nrules skew in
    let params = Runner.cell_params params label in
    let run_one sub ~contended =
      run_one
        ~params:(Runner.Params.with_cell (label ^ sub) params)
        ~backend ~nrules ~skew ~contended
    in
    let solo, fp = run_one "/solo" ~contended:false in
    let corun, _ = run_one "/corun" ~contended:true in
    let table = Ppp_classify.Fastpath.table fp in
    let hits = Ppp_classify.Flow_table.hits table in
    let misses = Ppp_classify.Flow_table.misses table in
    let lookups = hits + misses in
    let upcalls = Ppp_classify.Fastpath.upcalls fp in
    {
      backend = bname;
      rules = nrules;
      skew;
      hit_rate = float_of_int hits /. float_of_int (max 1 lookups);
      upcalls_per_packet =
        Runner.per_packet upcalls ~packets:solo.Ppp_hw.Engine.packets;
      lookups;
      hits;
      upcalls;
      installs = Ppp_classify.Flow_table.installs table;
      evictions = Ppp_classify.Flow_table.evictions table;
      solo_pps = solo.Ppp_hw.Engine.throughput_pps;
      drop = Runner.drop ~solo ~corun;
      l3_refs_per_sec = solo.Ppp_hw.Engine.l3_refs_per_sec;
    }
  in
  { cells = Parallel.map cell cells }

let columns =
  Output.
    [
      col "backend" "backend" str (fun c -> c.backend);
      col "rules" "rules" int (fun c -> c.rules);
      col "skew" "skew" (num (Printf.sprintf "%.1f")) (fun c -> c.skew);
      col "hit_rate" "hit rate (%)" pct (fun c -> c.hit_rate);
      col "upcalls_per_packet" "upcalls/pkt" (num (Printf.sprintf "%.4f"))
        (fun c -> c.upcalls_per_packet);
      json_col "lookups" int (fun c -> c.lookups);
      json_col "hits" int (fun c -> c.hits);
      json_col "upcalls" int (fun c -> c.upcalls);
      json_col "installs" int (fun c -> c.installs);
      json_col "evictions" int (fun c -> c.evictions);
      col "solo_pps" "solo pps" f0 (fun c -> c.solo_pps);
      col "drop" "drop vs 5 SYN_MAX (%)" pct (fun c -> c.drop);
      col "l3_refs_per_sec" "L3 refs/s" (num (Printf.sprintf "%.3g")) (fun c ->
          c.l3_refs_per_sec);
    ]

let render data =
  let by_backend name =
    List.filter (fun c -> c.backend = name) data.cells
  in
  let avg f = function
    | [] -> 0.0
    | cs -> List.fold_left (fun a c -> a +. f c) 0.0 cs /. float_of_int (List.length cs)
  in
  let tss = by_backend "tss" and range = by_backend "range" in
  Output.text_table
    ~title:
      "Flow classification: fast-path economics and contention, by backend"
    columns data.cells
  ^ Printf.sprintf
      "\nskew moves the flow table's hit rate, and the backends only matter \
       on the miss path: mean drop %s%% (tss) vs %s%% (range), mean solo \
       aggressiveness %.3g vs %.3g L3 refs/s. The slow path's memory \
       footprint is a contention story only in proportion to the upcall \
       rate — a hot, skewed universe hides either backend.\n"
      (Output.show Output.pct (avg (fun c -> c.drop) tss))
      (Output.show Output.pct (avg (fun c -> c.drop) range))
      (avg (fun c -> c.l3_refs_per_sec) tss)
      (avg (fun c -> c.l3_refs_per_sec) range)

let data_json data = Output.table columns data.cells

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
