(* The spans Runner.run already emits (one per call, named by the cell
   label, with seed / flows / config args) when the telemetry recorder is
   configured with [~spans:true]. The benchmark only switches them on and
   reads them back. *)

module Rec = Ppp_telemetry.Recorder
module Span = Ppp_telemetry.Span

let start () =
  Rec.reset ();
  Rec.configure ~spans:true ()

let stop () = Rec.reset ()

(* Takes the runner spans recorded so far and re-parents them under
   [parent] in the benchmark's own tracer. *)
let collect ~tracer ~parent =
  let ss = List.filter (fun (s : Span.t) -> s.Span.cat = "runner") (Rec.spans ()) in
  Rec.clear_data ();
  List.iter
    (fun (s : Span.t) ->
      Spans.add tracer ~parent ~cat:"runner" ~name:"runner.run"
        ~args:(("cell", s.Span.name) :: s.Span.args)
        ~start_ns:(Clock.ns_of_wall_s s.Span.start_s)
        ~dur_ns:(int_of_float (s.Span.dur_s *. 1e9))
        ())
    ss;
  ss

let key (s : Span.t) =
  String.concat "|" (s.Span.name :: List.map (fun (k, v) -> k ^ "=" ^ v) s.Span.args)

type stats = { calls : int; distinct : int; p50_ms : float; p90_ms : float }

let stats (ss : Span.t list) =
  let keys = List.sort_uniq compare (List.map key ss) in
  let ms = List.map (fun (s : Span.t) -> s.Span.dur_s *. 1e3) ss in
  {
    calls = List.length ss;
    distinct = List.length keys;
    p50_ms = Stats.quantile ms 0.5;
    p90_ms = Stats.quantile ms 0.9;
  }
