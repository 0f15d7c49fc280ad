type resource = Cache_only | Memctrl_only | Both

let resource_name = function
  | Cache_only -> "cache-only"
  | Memctrl_only -> "memctrl-only"
  | Both -> "cache+memctrl"

let default_competitors config =
  min 5 (Ppp_hw.Machine.cores_per_socket config - 1)

let competitors ~config resource kind =
  let cps = Ppp_hw.Machine.cores_per_socket config in
  List.init (default_competitors config) (fun i ->
      match resource with
      | Cache_only -> Runner.flow_on ~node:1 ~core:(1 + i) kind
      | Memctrl_only -> Runner.flow_on ~node:0 ~core:(cps + i) kind
      | Both -> Runner.flow_on ~node:0 ~core:(1 + i) kind)

let corun ~params resource ~competitor target =
  match
    Runner.run ~params
      (Runner.flow_on ~node:0 ~core:0 target
      :: competitors ~config:params.Runner.config resource competitor)
  with
  | t :: _ as results -> (t, Runner.competing_refs_per_sec results ~target:t)
  | [] -> assert false

(* Ramp both SYN knobs (the paper's synthetic application has a
   configurable number of CPU operations and of random reads), so that a
   SYN flow's per-packet I/O overhead stays comparable to the realistic
   flows' across the whole range of aggressiveness. *)
let default_syn_levels =
  List.map
    (fun (reads, instrs) -> { Ppp_apps.App.reads; instrs })
    [
      (2, 80_000);
      (4, 40_000);
      (8, 20_000);
      (8, 8_000);
      (16, 6_000);
      (16, 3_000);
      (32, 2_500);
      (32, 1_200);
      (64, 1_000);
      (64, 400);
      (128, 300);
      (256, 0);
    ]

type point = {
  competing_refs_per_sec : float;
  drop : float;
  target_hits_per_sec : float;
}

type curve = {
  target : Ppp_apps.App.kind;
  resource : resource;
  solo_pps : float;
  points : point list;
}

let measure ?(params = Runner.Params.default) ?(levels = default_syn_levels)
    ~resource ~solo target =
  let solo_pps = solo.Ppp_hw.Engine.throughput_pps in
  let run_level i level =
    let params =
      Runner.cell_params params
        (Printf.sprintf "sens/%s/%s/%d" (Ppp_apps.App.name target)
           (resource_name resource) i)
    in
    let t, competing_refs_per_sec =
      corun ~params resource ~competitor:(Ppp_apps.App.SYN level) target
    in
    {
      competing_refs_per_sec;
      drop = Runner.drop ~solo ~corun:t;
      target_hits_per_sec = t.Ppp_hw.Engine.l3_hits_per_sec;
    }
  in
  let points = Parallel.mapi run_level levels in
  let origin =
    {
      competing_refs_per_sec = 0.0;
      drop = 0.0;
      target_hits_per_sec = solo.Ppp_hw.Engine.l3_hits_per_sec;
    }
  in
  let sorted =
    List.sort
      (fun a b -> compare a.competing_refs_per_sec b.competing_refs_per_sec)
      (origin :: points)
  in
  { target; resource; solo_pps; points = sorted }

let to_series curve =
  Ppp_util.Series.of_points
    (List.map (fun p -> (p.competing_refs_per_sec, p.drop)) curve.points)
