type verdict = Forward | Drop

type t = Ctx.t -> Ppp_net.Packet.t -> verdict

let rec process_all elements ctx pkt =
  match elements with
  | [] -> Forward
  | e :: rest -> (
      match e ctx pkt with
      | Forward -> process_all rest ctx pkt
      | Drop -> Drop)
