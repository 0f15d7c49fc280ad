(* Digests of simulated outputs, and the table of digests recorded for
   known seeds (perfbench/digests.txt: one "key seed md5" per line, '#'
   starts a comment).

   A result digest covers what a simulator-only change must leave
   unchanged: packets, window cycles, every counter (per-function counters
   keyed by function name, not tag number), latency percentiles and engine
   ops. Derived floats (rates) are left out; they follow from these. *)

module E = Ppp_hw.Engine
module C = Ppp_hw.Counters

let percentiles = [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]

let add_histogram b h =
  Printf.bprintf b "n=%d;" (Ppp_util.Histogram.count h);
  List.iter
    (fun p -> Printf.bprintf b "%d," (Ppp_util.Histogram.percentile h p))
    percentiles

let add_counters b c =
  Printf.bprintf b "i=%d;l1=%d;l2=%d;l3h=%d;l3m=%d;r=%d;w=%d;p=%d;"
    (C.instructions c) (C.l1_hits c) (C.l2_hits c) (C.l3_hits c)
    (C.l3_misses c) (C.reads c) (C.writes c) (C.packets c);
  let fns =
    List.filter_map
      (fun fn ->
        if C.fn_refs c fn = 0 && C.fn_l3_refs c fn = 0 then None
        else
          Some
            (Printf.sprintf "%s:%d/%d/%d/%d" (Ppp_hw.Fn.name fn) (C.fn_refs c fn)
               (C.fn_l3_refs c fn) (C.fn_l3_hits c fn) (C.fn_l3_misses c fn)))
      (List.init (Ppp_hw.Fn.count ()) Fun.id)
  in
  Buffer.add_string b (String.concat "," (List.sort compare fns))

let of_result b (r : E.result) =
  Printf.bprintf b "[core=%d;label=%s;packets=%d;window=%d;ops=%d;" r.E.core
    r.E.label r.E.packets r.E.window_cycles r.E.engine_ops;
  add_counters b r.E.counters;
  Buffer.add_string b ";lat=";
  add_histogram b r.E.latency;
  Buffer.add_string b ";inorder=";
  add_histogram b r.E.latency_inorder;
  Buffer.add_string b ";reordered=";
  add_histogram b r.E.latency_reordered;
  Buffer.add_string b "]"

let of_results rs =
  let b = Buffer.create 4096 in
  List.iter (of_result b) rs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let of_text s = Digest.to_hex (Digest.string s)

type table = (string * int, string) Hashtbl.t

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | [ key; seed; digest ] -> (
        match int_of_string_opt seed with
        | Some seed -> Some ((key, seed), digest)
        | None -> failwith ("digests: bad seed in line: " ^ line))
    | _ -> failwith ("digests: bad line: " ^ line)

let load path : table =
  let tbl = Hashtbl.create 256 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          match parse_line (input_line ic) with
          | Some (k, d) -> Hashtbl.replace tbl k d
          | None -> ()
        done
      with End_of_file -> ());
  tbl

let find (tbl : table) ~key ~seed = Hashtbl.find_opt tbl (key, seed)
let line ~key ~seed digest = Printf.sprintf "%s %d %s" key seed digest
