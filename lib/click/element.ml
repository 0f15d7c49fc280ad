type verdict = Forward | Drop

type t = {
  kind : string;
  process : Ctx.t -> Ppp_net.Packet.t -> verdict;
}

let make ~kind process = { kind; process }

let rec process_all elements ctx pkt =
  match elements with
  | [] -> Forward
  | e :: rest -> (
      match e.process ctx pkt with
      | Forward -> process_all rest ctx pkt
      | Drop -> Drop)
