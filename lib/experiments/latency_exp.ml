open Ppp_core

type row = {
  scenario : string;
  throughput_pps : float;
  mean_cycles : float;
  p50_cycles : int;
  p99_cycles : int;
  max_cycles : int;
}

type data = { target : Ppp_apps.App.kind; rows : row list }

let row_of scenario (r : Ppp_hw.Engine.result) =
  let h = r.Ppp_hw.Engine.latency in
  {
    scenario;
    throughput_pps = r.Ppp_hw.Engine.throughput_pps;
    mean_cycles =
      Runner.per_packet (Ppp_util.Histogram.total h)
        ~packets:(Ppp_util.Histogram.count h);
    p50_cycles = Ppp_util.Histogram.percentile h 50.0;
    p99_cycles = Ppp_util.Histogram.percentile h 99.0;
    max_cycles = Ppp_util.Histogram.max_value h;
  }

let measure ?(params = Runner.Params.default) () =
  let target = Ppp_apps.App.MON in
  let solo = Runner.solo ~params target in
  let corun competitor label =
    let params =
      Runner.Params.with_cell
        ("latency/vs-" ^ Ppp_apps.App.name competitor)
        params
    in
    let t, _ = Sensitivity.corun ~params Sensitivity.Both ~competitor target in
    row_of label t
  in
  {
    target;
    rows =
      [
        row_of "solo" solo;
        corun Ppp_apps.App.FW "vs 5 FW (mild)";
        corun Ppp_apps.App.MON "vs 5 MON";
        corun Ppp_apps.App.RE "vs 5 RE (aggressive)";
        corun Ppp_apps.App.syn_max "vs 5 SYN_MAX";
      ];
  }

let columns =
  Output.
    [
      col "scenario" "scenario" str (fun r -> r.scenario);
      col "throughput_pps" "pps" f0 (fun r -> r.throughput_pps);
      col "mean_cycles" "mean" f0 (fun r -> r.mean_cycles);
      col "p50_cycles" "p50" int (fun r -> r.p50_cycles);
      col "p99_cycles" "p99" int (fun r -> r.p99_cycles);
      col "max_cycles" "max" int (fun r -> r.max_cycles);
    ]

let render data =
  let solo = List.hd data.rows in
  let worst = List.nth data.rows (List.length data.rows - 1) in
  Output.text_table
    ~title:
      (Printf.sprintf
         "Per-packet latency of a %s flow under increasing contention \
          (cycles)"
         (Ppp_apps.App.name data.target))
    columns data.rows
  ^ Printf.sprintf
      "\ncontention inflated the median %.1fx but the p99 tail %.1fx.\n"
      (float_of_int worst.p50_cycles /. float_of_int (max 1 solo.p50_cycles))
      (float_of_int worst.p99_cycles /. float_of_int (max 1 solo.p99_cycles))

let data_json data =
  let open Output in
  Json.Obj
    [
      ("target", Json.Str (Ppp_apps.App.name data.target));
      ("rows", table columns data.rows);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
