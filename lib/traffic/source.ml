type status = Filled | Exhausted

type t = {
  name : string;
  fill_fn : t -> Ppp_net.Packet.t -> status;
  mutable last_flow : int;
  mutable last_seq : int;
  mutable packets : int;
}

let make ?(name = "source") ~fill () =
  { name; fill_fn = fill; last_flow = 0; last_seq = 0; packets = 0 }

let fill t pkt =
  match t.fill_fn t pkt with
  | Filled ->
      t.packets <- t.packets + 1;
      Filled
  | Exhausted -> Exhausted

let set_meta t ~flow ~seq =
  t.last_flow <- flow;
  t.last_seq <- seq

let name t = t.name
let last_flow t = t.last_flow
let last_seq t = t.last_seq
let packets t = t.packets

let constant () =
  make ~name:"constant"
    ~fill:(fun t pkt ->
      Gen.fill_ipv4_udp pkt ~src:0x0A000001 ~dst:0x0A000002 ~sport:1000
        ~dport:2000 ~wire_len:64;
      t.last_seq <- t.packets;
      Filled)
    ()
