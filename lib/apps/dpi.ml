open Ppp_simmem

let fn_dpi = Ppp_hw.Fn.register "dpi"

(* Transition entry: next state in bits 0-23, "state has output" in bit 24. *)
let next_of v = v land 0xFFFFFF
let has_output v = v land (1 lsl 24) <> 0

type t = {
  delta : int Iarray.t; (* states * 256 *)
  output : int Iarray.t; (* per-state pattern bitmask *)
  mutable matches_seen : int;
}

let create ~heap patterns =
  if patterns = [] then invalid_arg "Dpi.create: no patterns";
  if List.length patterns > 62 then invalid_arg "Dpi.create: too many patterns";
  List.iter
    (fun p -> if p = "" then invalid_arg "Dpi.create: empty pattern")
    patterns;
  let pats = Array.of_list patterns in
  let cap = Array.fold_left (fun acc p -> acc + String.length p) 1 pats in
  (* Build goto/fail/output with plain arrays first. *)
  let goto = Array.make_matrix cap 256 (-1) in
  let fail = Array.make cap 0 in
  let out = Array.make cap 0 in
  let nstates = ref 1 in
  Array.iteri
    (fun pi p ->
      let state = ref 0 in
      String.iter
        (fun ch ->
          let c = Char.code ch in
          if goto.(!state).(c) < 0 then begin
            if !nstates >= cap then failwith "Dpi: state pool exhausted";
            goto.(!state).(c) <- !nstates;
            incr nstates
          end;
          state := goto.(!state).(c))
        p;
      out.(!state) <- out.(!state) lor (1 lsl pi))
    pats;
  (* BFS to compute failure links and collapse into a dense delta. *)
  let queue = Queue.create () in
  for c = 0 to 255 do
    if goto.(0).(c) < 0 then goto.(0).(c) <- 0
    else if goto.(0).(c) <> 0 then Queue.push goto.(0).(c) queue
  done;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    for c = 0 to 255 do
      let u = goto.(s).(c) in
      if u >= 0 then begin
        Queue.push u queue;
        fail.(u) <- goto.(fail.(s)).(c);
        out.(u) <- out.(u) lor out.(fail.(u))
      end
      else goto.(s).(c) <- goto.(fail.(s)).(c)
    done
  done;
  let n = !nstates in
  let delta = Iarray.create heap ~elem_bytes:4 (n * 256) 0 in
  let output = Iarray.create heap ~elem_bytes:8 n 0 in
  for s = 0 to n - 1 do
    Iarray.poke output s out.(s);
    for c = 0 to 255 do
      let nx = goto.(s).(c) in
      let v = nx lor (if out.(nx) <> 0 then 1 lsl 24 else 0) in
      Iarray.poke delta ((s * 256) + c) v
    done
  done;
  { delta; output; matches_seen = 0 }

let scan_gen t read_delta read_output b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Dpi.scan: range";
  let acc = ref [] in
  let state = ref 0 in
  for i = pos to pos + len - 1 do
    let v = read_delta t.delta ((!state * 256) + Char.code (Bytes.get b i)) in
    state := next_of v;
    if has_output v then begin
      let mask = read_output t.output !state in
      let m = ref mask in
      while !m <> 0 do
        let pi =
          (* Lowest set bit index. *)
          let rec go i v = if v land 1 = 1 then i else go (i + 1) (v lsr 1) in
          go 0 !m
        in
        acc := (pi, i - pos) :: !acc;
        m := !m land (!m - 1)
      done
    end
  done;
  List.rev !acc

let scan t builder ~fn b ~pos ~len =
  scan_gen t
    (fun arr i -> Iarray.get arr builder ~fn i)
    (fun arr i -> Iarray.get arr builder ~fn i)
    b ~pos ~len

let scan_quiet t b ~pos ~len = scan_gen t Iarray.peek Iarray.peek b ~pos ~len

let matches_seen t = t.matches_seen

let element ?(drop_on_match = true) t =
  (fun ctx pkt ->
    let pos = Ppp_net.Transport.payload_offset pkt in
    let len = pkt.Ppp_net.Packet.len - pos in
    if len <= 0 then Ppp_click.Element.Forward
    else begin
      Ppp_click.Ctx.touch_packet ctx pkt ~fn:fn_dpi ~write:false ~pos ~len;
      (* One compare/advance per byte. *)
      Ppp_click.Ctx.compute ctx ~fn:fn_dpi (2 * len);
      let matches =
        scan t ctx.Ppp_click.Ctx.builder ~fn:fn_dpi pkt.Ppp_net.Packet.data
          ~pos ~len
      in
      t.matches_seen <- t.matches_seen + List.length matches;
      if matches <> [] && drop_on_match then Ppp_click.Element.Drop
      else Ppp_click.Element.Forward
    end)
