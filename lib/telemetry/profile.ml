(* Attribution profiles: Attrib accumulators -> recorder entries, folded
   flamegraph stacks, and the `top` hot-spot report.

   Rows are function tags (Ppp_hw.Fn), keyed by tag NAME and sorted, so the
   rendered exports never depend on tag numbering and are byte-identical
   for any --jobs. *)

open Ppp_hw

let pct h p =
  match h with None -> 0 | Some h -> Ppp_util.Histogram.percentile h p

let entries ~cell ~flow attrib =
  let out = ref [] in
  for core = Attrib.cores attrib - 1 downto 0 do
    let pr_flow = flow ~core in
    for fn = Fn.count () - 1 downto 0 do
      let cycles = Attrib.cycles attrib ~core ~fn in
      let lat = Attrib.latency attrib ~core ~fn in
      (* A tag appears if it retired window cycles or recorded packet
         latency; untouched (core, fn) rows are skipped entirely. *)
      if cycles > 0 || lat <> None then
        out :=
          {
            Recorder.pr_cell = cell;
            pr_core = core;
            pr_flow;
            pr_elem = Fn.name fn;
            pr_cycles = cycles;
            pr_instructions = Attrib.instructions attrib ~core ~fn;
            pr_l3_hits = Attrib.l3_hits attrib ~core ~fn;
            pr_l3_misses = Attrib.l3_misses attrib ~core ~fn;
            pr_packets =
              (match lat with
              | None -> 0
              | Some h -> Ppp_util.Histogram.count h);
            pr_lat_p50 = pct lat 50.0;
            pr_lat_p90 = pct lat 90.0;
            pr_lat_p99 = pct lat 99.0;
            pr_lat_p999 = pct lat 99.9;
            pr_window_start = Attrib.window_start attrib ~core;
            pr_window_cycles = Attrib.window_cycles attrib ~core;
          }
          :: !out
    done
  done;
  List.sort
    (fun a b ->
      compare
        (a.Recorder.pr_cell, a.Recorder.pr_core, a.Recorder.pr_elem)
        (b.Recorder.pr_cell, b.Recorder.pr_core, b.Recorder.pr_elem))
    !out

let record ~cell ~flow attrib =
  Recorder.add_profile (entries ~cell ~flow attrib)

(* Folded flamegraph stacks: one "flow;tag value" line per stack,
   aggregated over cores and cells, sorted lexicographically. Loadable by
   flamegraph.pl / inferno / speedscope as-is. *)
let folded ~value entries =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (e : Recorder.profile_entry) ->
      let v = value e in
      if v > 0 then begin
        let key = (e.Recorder.pr_flow, e.Recorder.pr_elem) in
        let prev = Option.value (Hashtbl.find_opt tbl key) ~default:0 in
        Hashtbl.replace tbl key (prev + v)
      end)
    entries;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows = List.sort compare rows in
  let buf = Buffer.create 256 in
  List.iter
    (fun ((flow, elem), v) -> Printf.bprintf buf "%s;%s %d\n" flow elem v)
    rows;
  Buffer.contents buf

let folded_cycles entries =
  folded ~value:(fun e -> e.Recorder.pr_cycles) entries

let folded_l3_misses entries =
  folded ~value:(fun e -> e.Recorder.pr_l3_misses) entries

type element_total = {
  el_name : string;
  el_cycles : int;
  el_instructions : int;
  el_l3_hits : int;
  el_l3_misses : int;
  el_packets : int;
  el_lat_p50 : int;
  el_lat_p90 : int;
  el_lat_p99 : int;
  el_lat_p999 : int;
}

let by_element entries =
  let tbl : (string, element_total ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (e : Recorder.profile_entry) ->
      let a =
        match Hashtbl.find_opt tbl e.Recorder.pr_elem with
        | Some a -> a
        | None ->
            let a =
              ref
                {
                  el_name = e.Recorder.pr_elem;
                  el_cycles = 0;
                  el_instructions = 0;
                  el_l3_hits = 0;
                  el_l3_misses = 0;
                  el_packets = 0;
                  el_lat_p50 = 0;
                  el_lat_p90 = 0;
                  el_lat_p99 = 0;
                  el_lat_p999 = 0;
                }
            in
            Hashtbl.add tbl e.Recorder.pr_elem a;
            a
      in
      a :=
        {
          !a with
          el_cycles = !a.el_cycles + e.Recorder.pr_cycles;
          el_instructions = !a.el_instructions + e.Recorder.pr_instructions;
          el_l3_hits = !a.el_l3_hits + e.Recorder.pr_l3_hits;
          el_l3_misses = !a.el_l3_misses + e.Recorder.pr_l3_misses;
          el_packets = !a.el_packets + e.Recorder.pr_packets;
          (* Percentiles don't sum across cores; report the worst core. *)
          el_lat_p50 = max !a.el_lat_p50 e.Recorder.pr_lat_p50;
          el_lat_p90 = max !a.el_lat_p90 e.Recorder.pr_lat_p90;
          el_lat_p99 = max !a.el_lat_p99 e.Recorder.pr_lat_p99;
          el_lat_p999 = max !a.el_lat_p999 e.Recorder.pr_lat_p999;
        })
    entries;
  let rows = Hashtbl.fold (fun _ a acc -> !a :: acc) tbl [] in
  List.sort
    (fun a b -> compare (b.el_cycles, a.el_name) (a.el_cycles, b.el_name))
    rows

let window_cycles_total entries =
  (* One window per (cell, core), however many tags it contains. *)
  List.map
    (fun (e : Recorder.profile_entry) ->
      (e.Recorder.pr_cell, e.Recorder.pr_core, e.Recorder.pr_window_cycles))
    entries
  |> List.sort_uniq compare
  |> List.fold_left (fun acc (_, _, w) -> acc + w) 0

let top ?(k = 10) ~title entries =
  let rows = by_element entries in
  let wtotal = window_cycles_total entries in
  let share c =
    if wtotal = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int wtotal
  in
  let miss_rate hits misses =
    let refs = hits + misses in
    if refs = 0 then 0.0 else 100.0 *. float_of_int misses /. float_of_int refs
  in
  let take k l = List.filteri (fun i _ -> i < k) l in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "profile top: %s\n" title;
  Printf.bprintf buf
    "window cycles (all cores): %d   elements: %d   entries: %d\n" wtotal
    (List.length rows) (List.length entries);
  Printf.bprintf buf "\ntop %d by cycles:\n" k;
  Printf.bprintf buf "  %-16s %12s %6s %12s %10s %6s %8s %8s %8s\n" "element"
    "cycles" "%win" "instrs" "L3refs" "miss%" "lat.p50" "lat.p99" "p99.9";
  List.iter
    (fun a ->
      Printf.bprintf buf
        "  %-16s %12d %5.1f%% %12d %10d %5.1f%% %8d %8d %8d\n" a.el_name
        a.el_cycles (share a.el_cycles) a.el_instructions
        (a.el_l3_hits + a.el_l3_misses)
        (miss_rate a.el_l3_hits a.el_l3_misses)
        a.el_lat_p50 a.el_lat_p99 a.el_lat_p999)
    (take k rows);
  Printf.bprintf buf "\ntop %d by L3 misses:\n" k;
  Printf.bprintf buf "  %-16s %12s %10s %6s %12s %6s\n" "element" "L3misses"
    "L3refs" "miss%" "cycles" "%win";
  let by_misses =
    List.filter (fun a -> a.el_l3_misses > 0) rows
    |> List.sort (fun a b ->
           compare (b.el_l3_misses, a.el_name) (a.el_l3_misses, b.el_name))
  in
  if by_misses = [] then Buffer.add_string buf "  (no L3 misses recorded)\n"
  else
    List.iter
      (fun a ->
        Printf.bprintf buf "  %-16s %12d %10d %5.1f%% %12d %5.1f%%\n"
          a.el_name a.el_l3_misses
          (a.el_l3_hits + a.el_l3_misses)
          (miss_rate a.el_l3_hits a.el_l3_misses)
          a.el_cycles (share a.el_cycles))
      (take k by_misses);
  Buffer.contents buf
