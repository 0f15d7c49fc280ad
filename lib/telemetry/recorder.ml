type experiment_entry = {
  exp_id : string;
  exp_title : string;
  exp_paper_ref : string;
  wall_s : float;
  exp_data : Json.t;
}

type profile_entry = {
  pr_cell : string;
  pr_core : int;
  pr_flow : string;
  pr_elem : string;
  pr_cycles : int;
  pr_instructions : int;
  pr_l3_hits : int;
  pr_l3_misses : int;
  pr_packets : int;
  pr_lat_p50 : int;
  pr_lat_p90 : int;
  pr_lat_p99 : int;
  pr_lat_p999 : int;
  pr_window_start : int;
  pr_window_cycles : int;
}

(* Sampling config and the current experiment id are read from worker
   domains on the hot-ish path, so they live in atomics; the accumulators
   are mutated under one mutex. *)
let sampling_setting = Atomic.make 0 (* 0 = off *)
let spans_setting = Atomic.make false
let experiment_tag = Atomic.make ""
let lock = Mutex.create ()
let acc_series : Timeseries.t list ref = ref []
let acc_spans : Span.t list ref = ref []
let acc_events : Event.t list ref = ref []
let acc_experiments : experiment_entry list ref = ref []
let acc_profile : profile_entry list ref = ref []

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let configure ?sample_cycles ?(spans = false) () =
  (match sample_cycles with
  | Some k when k < 1 ->
      invalid_arg "Recorder.configure: sample_cycles must be >= 1"
  | _ -> ());
  Atomic.set sampling_setting (Option.value sample_cycles ~default:0);
  Atomic.set spans_setting spans

let clear_data () =
  locked (fun () ->
      acc_series := [];
      acc_spans := [];
      acc_events := [];
      acc_experiments := [];
      acc_profile := [])

let reset () =
  Atomic.set sampling_setting 0;
  Atomic.set spans_setting false;
  Atomic.set experiment_tag "";
  clear_data ()

let sampling () =
  match Atomic.get sampling_setting with 0 -> None | k -> Some k

let spans_enabled () = Atomic.get spans_setting
let set_experiment id = Atomic.set experiment_tag id
let current_experiment () = Atomic.get experiment_tag

let add_series ss =
  let experiment = current_experiment () in
  let ss =
    List.map (fun s -> { s with Timeseries.experiment }) ss
  in
  locked (fun () -> acc_series := List.rev_append ss !acc_series)

let add_span s = locked (fun () -> acc_spans := s :: !acc_spans)

let add_events es =
  let experiment = current_experiment () in
  let es =
    List.map
      (fun (e : Event.t) ->
        if e.Event.experiment = "" then { e with Event.experiment } else e)
      es
  in
  locked (fun () -> acc_events := List.rev_append es !acc_events)

let record_experiment ~id ~title ~paper_ref ~wall_s ~data =
  locked (fun () ->
      acc_experiments :=
        {
          exp_id = id;
          exp_title = title;
          exp_paper_ref = paper_ref;
          wall_s;
          exp_data = data;
        }
        :: !acc_experiments)

let series () =
  locked (fun () -> List.sort Timeseries.compare !acc_series)

let spans () =
  locked (fun () ->
      List.sort
        (fun (a : Span.t) b ->
          compare (a.Span.start_s, a.Span.name) (b.Span.start_s, b.Span.name))
        !acc_spans)

let events () = locked (fun () -> List.sort Event.compare !acc_events)
let experiments () = locked (fun () -> List.rev !acc_experiments)

let add_profile es =
  locked (fun () -> acc_profile := List.rev_append es !acc_profile)

let profile () =
  locked (fun () ->
      List.sort
        (fun a b ->
          compare (a.pr_cell, a.pr_core, a.pr_elem)
            (b.pr_cell, b.pr_core, b.pr_elem))
        !acc_profile)
