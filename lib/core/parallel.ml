(* A small fixed worker pool over OCaml 5 domains.

   Experiment cells are pure (each builds its own machine, heaps and RNG
   streams from a derived seed), so fanning them out is safe; results are
   written into per-index slots and reassembled in input order, which is
   what makes parallel output byte-identical to sequential. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* 0 = auto (physical cores). Set once from the CLI; read by every map. *)
let setting = Atomic.make 0

let set_jobs n =
  if n < 0 then invalid_arg "Parallel.set_jobs: negative job count";
  Atomic.set setting n

let configured_jobs () = Atomic.get setting

let jobs () =
  let n = Atomic.get setting in
  if n > 0 then n else default_jobs ()

let sequential_mapi f xs = List.mapi f xs

(* When span collection is on, each work item reports its queue wait (time
   between fan-out and a worker picking it up) and run wall-clock. Purely
   observational: failures skip the span, and the span never touches the
   result. *)
let with_item_span ~t_queue i f =
  if not (Ppp_telemetry.Recorder.spans_enabled ()) then f ()
  else begin
    let t_start = Ppp_telemetry.Span.now_s () in
    let r = f () in
    Ppp_telemetry.Recorder.add_span
      {
        Ppp_telemetry.Span.name = Printf.sprintf "cell[%d]" i;
        cat = "parallel";
        domain = (Domain.self () :> int);
        start_s = t_start;
        dur_s = Ppp_telemetry.Span.now_s () -. t_start;
        queue_s = t_start -. t_queue;
        args = [ ("index", string_of_int i) ];
      };
    r
  end

(* Work-stealing by index from a shared counter. Only the main domain fans
   out: nested calls (a parallel experiment whose cells themselves call a
   parallel helper) degrade to sequential inside workers, bounding the pool
   at [jobs] domains total. *)
let pooled_mapi ~jobs f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let results = Array.make n None in
  let error = Atomic.make None in
  let next = Atomic.make 0 in
  let t_queue = Ppp_telemetry.Span.now_s () in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match with_item_span ~t_queue i (fun () -> f i input.(i)) with
      | r -> results.(i) <- Some r
      | exception e ->
          (* Keep the lowest-index failure: it is the one a sequential run
             would have raised. *)
          let rec record () =
            match Atomic.get error with
            | Some (j, _) when j < i -> ()
            | cur ->
                if not (Atomic.compare_and_set error cur (Some (i, e))) then
                  record ()
          in
          record ());
      worker ()
    end
  in
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  (match Atomic.get error with Some (_, e) -> raise e | None -> ());
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) results)

let mapi ?jobs:j f xs =
  let requested = match j with Some n when n > 0 -> n | _ -> jobs () in
  let n = List.length xs in
  let jobs = min requested n in
  if jobs <= 1 || not (Domain.is_main_domain ()) then sequential_mapi f xs
  else pooled_mapi ~jobs f xs

let map ?jobs f xs = mapi ?jobs (fun _ x -> f x) xs
