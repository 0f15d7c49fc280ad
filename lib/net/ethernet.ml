let header_bytes = 14
let ethertype_ipv4 = 0x0800

let check_mac m =
  if String.length m <> 6 then invalid_arg "Ethernet: MAC must be 6 bytes"

let set_header p ~src ~dst ~ethertype =
  check_mac src;
  check_mac dst;
  Packet.blit_string dst p 0;
  Packet.blit_string src p 6;
  Packet.set16 p 12 ethertype

let ethertype p = Packet.get16 p 12

let mac_of_string s =
  let octet x =
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    let n = String.length x in
    if n < 1 || n > 2 || not (String.for_all hex x) then
      invalid_arg "Ethernet.mac_of_string: bad octet";
    Char.chr (int_of_string ("0x" ^ x))
  in
  match String.split_on_char ':' s with
  | [ _; _; _; _; _; _ ] as octets ->
      String.of_seq (List.to_seq (List.map octet octets))
  | _ -> invalid_arg "Ethernet.mac_of_string: expected xx:xx:xx:xx:xx:xx"

let mac_to_string m =
  check_mac m;
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code m.[i])))
