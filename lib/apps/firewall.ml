open Ppp_simmem

type rule = {
  src : int;
  src_mask : int;
  dst : int;
  dst_mask : int;
  sport_lo : int;
  sport_hi : int;
  dport_lo : int;
  dport_hi : int;
  proto : int;
}

let rule_any =
  {
    src = 0;
    src_mask = 0;
    dst = 0;
    dst_mask = 0;
    sport_lo = 0;
    sport_hi = 0xFFFF;
    dport_lo = 0;
    dport_hi = 0xFFFF;
    proto = 0;
  }

type t = { table : rule Iarray.t; count : int }

let create ~heap rules =
  if rules = [] then invalid_arg "Firewall.create: no rules";
  let arr = Array.of_list rules in
  {
    table = Iarray.init heap ~elem_bytes:16 (Array.length arr) (fun i -> arr.(i));
    count = Array.length arr;
  }

let matches r pkt =
  let open Ppp_net in
  Ipv4.src pkt land r.src_mask = r.src land r.src_mask
  && Ipv4.dst pkt land r.dst_mask = r.dst land r.dst_mask
  && (r.proto = 0 || Ipv4.proto pkt = r.proto)
  &&
  let sp = Transport.src_port pkt and dp = Transport.dst_port pkt in
  sp >= r.sport_lo && sp <= r.sport_hi && dp >= r.dport_lo && dp <= r.dport_hi

let per_rule_instrs = 8

let check t b ~fn pkt =
  let rec scan i =
    if i >= t.count then None
    else begin
      let r = Iarray.get t.table b ~fn i in
      Ppp_hw.Trace.Builder.compute b ~fn per_rule_instrs;
      if matches r pkt then Some i else scan (i + 1)
    end
  in
  scan 0
