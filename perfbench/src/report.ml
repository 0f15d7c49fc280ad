(* What one run prints: a table of metrics, then, as the last line of
   stdout, one JSON object. Numbers are printed with every digit. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let num x = Printf.sprintf "%.17g" x

let print_table oc metrics =
  List.iter
    (fun x -> Printf.fprintf oc "metric %-32s %24s %s\n" x.name (num x.value) x.unit_)
    metrics

let json_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_str x.name)
              (num x.value) (Spans.json_str x.unit_))
          metrics))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
