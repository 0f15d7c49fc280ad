open Ppp_util
open Ppp_click

type syn_params = { reads : int; instrs : int }
type kind = IP | MON | FW | RE | VPN | DPI | SYN of syn_params

let syn_max = SYN { reads = 256; instrs = 0 }
let realistic = [ IP; MON; FW; RE; VPN ]

let name = function
  | IP -> "IP"
  | MON -> "MON"
  | FW -> "FW"
  | RE -> "RE"
  | VPN -> "VPN"
  | DPI -> "DPI"
  | SYN { reads = 256; instrs = 0 } -> "SYN_MAX"
  | SYN { reads; instrs } -> Printf.sprintf "SYN:%d:%d" reads instrs

let of_name s =
  match s with
  | "IP" -> Some IP
  | "MON" -> Some MON
  | "FW" -> Some FW
  | "RE" -> Some RE
  | "VPN" -> Some VPN
  | "DPI" -> Some DPI
  | "SYN_MAX" -> Some syn_max
  | _ -> (
      match String.split_on_char ':' s with
      | [ "SYN"; reads; instrs ] -> (
          match (int_of_string_opt reads, int_of_string_opt instrs) with
          | Some reads, Some instrs when reads >= 0 && instrs >= 0 ->
              Some (SYN { reads; instrs })
          | _ -> None)
      | _ -> None)

(* Paper-scale workload parameters (divided by the machine scale factor). *)
let base_routes = 131072
let base_n16 = 4096
let base_flows = 100000
let fw_rule_count = 1000
let base_store_bytes = 32 * 1024 * 1024
let base_ft_entries = 4 * 1024 * 1024
let base_l3_bytes = 12 * 1024 * 1024
let re_corpus = 4096
let base_dpi_patterns = 1000
let re_redundancy_pct = 60

let wire_len = function
  | IP | MON | FW -> 64
  | RE -> 1024
  | VPN -> 192
  | DPI -> 512
  | SYN _ -> 64

type built = { elements : Element.t list; source : Ppp_traffic.Source.t }

type sizes = { routes : int; n16 : int; flows : int }

let sizes ~scale =
  {
    routes = max 64 (base_routes / scale);
    n16 = max 16 (base_n16 / scale);
    flows = max 64 (base_flows / scale);
  }

let rec pow2 n v = if v >= n then v else pow2 n (v * 2)

let working_set_bytes kind ~scale =
  let s = sizes ~scale in
  let trie_hot =
    (* Hot root lines, the level-1 nodes, and the (rarely visited) level-2
       nodes weighted down. *)
    (s.n16 * 64) + (s.n16 * 2048) + (s.routes * 3 / 100 * 2048 / 4)
  in
  let nf = pow2 (s.flows * 5 / 4) 16 * 64 in
  let buffers = 64 * 2048 in
  trie_hot + buffers
  +
  match kind with
  | IP -> 0
  | MON -> nf
  | DPI ->
      (* Dense automaton: ~12 states per pattern, 1KB + 8B per state. *)
      nf + (max 16 (base_dpi_patterns / scale) * 12 * (1024 + 8))
  | FW -> nf + (fw_rule_count * 16)
  | RE ->
      nf
      + max 65536 (base_store_bytes / scale)
      + (max 4096 (base_ft_entries / scale) * 8)
  | VPN -> nf + 5120
  | SYN _ -> max 4096 (base_l3_bytes / scale) - trie_hot - nf


(* The IP forwarding substrate every realistic flow shares. *)
let ip_substrate ~heap ~scale =
  let s = sizes ~scale in
  Route_pool.shared ~heap ~seed:(0x51CC5EED + (scale * 7919)) ~n16:s.n16
    ~routes:s.routes

(* Stable 5-tuple per flow index, uniform flow popularity, as a
   first-class source with per-flow sequence numbers. *)
let tuple_source ~rng ~pool ~flows ~wire ~payload =
  (* The paper drives every application with uniformly random traffic: this
     maximizes the flows' sensitivity to contention (Section 2.1). *)
  let seqs = Array.make flows 0 in
  Ppp_traffic.Source.make ~name:"uniform-tuples"
    ~fill:(fun s pkt ->
      let f = Rng.int rng flows in
      let h = Hashes.fnv1a_int (f lxor 0x5bd1e995) in
      let src = 0x0A000000 lor (h land 0xFFFFFF) in
      let dst = Route_pool.dst_of_flow pool f in
      let sport = 1024 + ((h lsr 24) land 0x3FFF) in
      let dport = 1024 + ((h lsr 40) land 0x3FFF) in
      Ppp_traffic.Gen.fill_ipv4_udp pkt ~src ~dst ~sport ~dport ~wire_len:wire;
      payload pkt;
      let seq = seqs.(f) in
      seqs.(f) <- seq + 1;
      Ppp_traffic.Source.set_meta s ~flow:f ~seq;
      Ppp_traffic.Source.Filled)
    ()

let no_payload (_ : Ppp_net.Packet.t) = ()

(* FW rules live in 192.168/16 while traffic sources live in 10/8, so no
   packet ever matches and every packet scans the full list (Section 2.1). *)
let make_rules ~rng n =
  List.init n (fun _ ->
      {
        Firewall.rule_any with
        Firewall.src = 0xC0A80000 lor Rng.int rng 65536;
        src_mask = 0xFFFFFFFF;
        sport_lo = 0;
        sport_hi = 65535;
        dport_lo = Rng.int rng 30000;
        dport_hi = 30000 + Rng.int rng 30000;
      })

let re_payload ~rng pkt =
  let pos = Ppp_net.Transport.payload_offset pkt in
  let len = pkt.Ppp_net.Packet.len - pos in
  if Rng.int rng 100 < re_redundancy_pct then
    let seed = 0xC0FFEE + Rng.int rng re_corpus in
    Ppp_traffic.Gen.seeded_payload ~seed pkt ~pos ~len
  else Ppp_traffic.Gen.random_payload rng pkt ~pos ~len

let random_key rng =
  String.init 16 (fun _ -> Char.chr (Rng.byte rng))

let build kind ~heap ~rng ~scale =
  if scale <= 0 then invalid_arg "App.build: scale";
  let s = sizes ~scale in
  let wire = wire_len kind in
  match kind with
  | SYN { reads; instrs } ->
      let syn =
        More_elements.Syn.create ~heap ~rng:(Rng.split rng)
          ~buffer_bytes:(max 4096 (base_l3_bytes / scale))
          ~reads_per_packet:reads ~instrs_per_packet:instrs
      in
      {
        elements = [ More_elements.Syn.element syn ];
        source = Ppp_traffic.Source.constant ();
      }
  | _ ->
      let { Route_pool.pool; trie; hop_table } = ip_substrate ~heap ~scale in
      let ip_chain = Ip_elements.forwarding_chain ~hop_table trie in
      let gen_rng = Rng.split rng in
      let finish ~extra_elements ~payload =
        {
          elements = ip_chain @ extra_elements;
          source = tuple_source ~rng:gen_rng ~pool ~flows:s.flows ~wire ~payload;
        }
      in
      let flowstats () =
        More_elements.flow_statistics
          (Netflow.create ~heap ~entries:(s.flows * 5 / 4))
      in
      (match kind with
      | IP -> finish ~extra_elements:[] ~payload:no_payload
      | MON -> finish ~extra_elements:[ flowstats () ] ~payload:no_payload
      | FW ->
          let fs = flowstats () in
          let fw =
            Firewall.create ~heap (make_rules ~rng:(Rng.split rng) fw_rule_count)
          in
          finish
            ~extra_elements:[ fs; More_elements.firewall fw ]
            ~payload:no_payload
      | RE ->
          let fs = flowstats () in
          let re =
            Re.create ~heap
              ~store_bytes:(max 65536 (base_store_bytes / scale))
              ~table_entries:(max 4096 (base_ft_entries / scale))
              ()
          in
          let payload = re_payload ~rng:(Rng.split rng) in
          finish ~extra_elements:[ fs; More_elements.re_encode re ] ~payload
      | DPI ->
          let fs = flowstats () in
          let n_patterns = max 16 (base_dpi_patterns / scale) in
          let prng = Rng.create ~seed:0xD191 in
          (* One automaton holds at most 62 patterns (bitmask match sets);
             to keep the footprint proportional to the configured pattern
             count, the per-pattern length grows instead. *)
          let patterns =
            List.init (min 62 n_patterns) (fun _ ->
                String.init
                  (8 + Rng.int prng 8 + (n_patterns / 62))
                  (fun _ -> Char.chr (1 + Rng.int prng 255)))
          in
          let dpi = Dpi.create ~heap patterns in
          finish
            ~extra_elements:[ fs; Dpi.element ~drop_on_match:false dpi ]
            ~payload:(let rng = Rng.split rng in
                      fun pkt ->
                        let pos = Ppp_net.Transport.payload_offset pkt in
                        Ppp_traffic.Gen.random_payload rng pkt ~pos
                          ~len:(pkt.Ppp_net.Packet.len - pos))
      | VPN ->
          let fs = flowstats () in
          let vpn =
            More_elements.vpn_encrypt ~heap ~key:(random_key (Rng.split rng))
          in
          let payload_rng = Rng.split rng in
          finish ~extra_elements:[ fs; vpn ]
            ~payload:(fun pkt ->
              let pos = Ppp_net.Transport.payload_offset pkt in
              Ppp_traffic.Gen.random_payload payload_rng pkt ~pos
                ~len:(pkt.Ppp_net.Packet.len - pos))
      | SYN _ -> assert false)

let flow kind ~heap ~rng ~scale ?label () =
  let b = build kind ~heap ~rng ~scale in
  let label = match label with Some l -> l | None -> name kind in
  Flow.create ~heap ~label ~source:b.source ~elements:b.elements ()
