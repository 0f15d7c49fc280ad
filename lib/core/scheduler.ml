type combo = (Ppp_apps.App.kind * int) list

let combo_name combo =
  combo
  |> List.map (fun (k, n) -> Printf.sprintf "%d %s" n (Ppp_apps.App.name k))
  |> String.concat " + "

(* Enumerate the number of flows of each kind assigned to socket 0; the rest
   go to socket 1. Only two-socket machines are supported (as the paper's). *)
let splits ~config combo =
  let topo = config.Ppp_hw.Machine.topology in
  if topo.Ppp_hw.Topology.sockets <> 2 then
    invalid_arg "Scheduler.splits: two-socket machines only";
  let cps = topo.Ppp_hw.Topology.cores_per_socket in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 combo in
  if total <> Ppp_hw.Topology.cores topo then
    invalid_arg "Scheduler.splits: combo must fill every core";
  List.iter
    (fun (_, n) -> if n <= 0 then invalid_arg "Scheduler.splits: counts") combo;
  let kinds = Array.of_list combo in
  let nkinds = Array.length kinds in
  let acc = ref [] in
  let counts = Array.make nkinds 0 in
  let rec go i assigned =
    if i = nkinds then begin
      if assigned = cps then begin
        let socket0 =
          List.concat
            (List.init nkinds (fun j ->
                 List.init counts.(j) (fun _ -> fst kinds.(j))))
        in
        let socket1 =
          List.concat
            (List.init nkinds (fun j ->
                 List.init (snd kinds.(j) - counts.(j)) (fun _ -> fst kinds.(j))))
        in
        acc := [ socket0; socket1 ] :: !acc
      end
    end
    else
      for c = 0 to min (snd kinds.(i)) (cps - assigned) do
        counts.(i) <- c;
        go (i + 1) (assigned + c);
        counts.(i) <- 0
      done
  in
  go 0 0;
  (* Dedup under socket exchange. *)
  let canon p =
    let key socket =
      List.map Ppp_apps.App.name socket |> List.sort compare |> String.concat ","
    in
    match p with
    | [ a; b ] ->
        let ka = key a and kb = key b in
        if ka <= kb then ka ^ "|" ^ kb else kb ^ "|" ^ ka
    | _ -> assert false
  in
  let seen = Hashtbl.create 32 in
  List.filter
    (fun p ->
      let k = canon p in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    !acc

type evaluation = {
  per_socket : Ppp_apps.App.kind list list;
  avg_drop : float;
  per_flow : (Ppp_apps.App.kind * float) list;
}

let evaluate ?(params = Runner.Params.default) ?(solo = []) combo =
  let config = params.Runner.config in
  let cps = Ppp_hw.Machine.cores_per_socket config in
  (* Resolve every solo baseline up front (in parallel for the missing
     ones): the placement cells below must not share mutable state. *)
  let solos =
    List.map fst combo
    |> List.sort_uniq compare
    |> Parallel.map (fun k ->
           match List.assoc_opt k solo with
           | Some r -> (k, r)
           | None -> (k, Runner.solo ~params k))
  in
  let eval i placement =
    let params =
      Runner.cell_params params
        (Printf.sprintf "sched/%s/%d" (combo_name combo) i)
    in
    let specs =
      List.concat
        (List.mapi
           (fun socket kinds_on_socket ->
             List.mapi
               (fun i kind ->
                 { Runner.kind; core = (socket * cps) + i; data_node = socket })
               kinds_on_socket)
           placement)
    in
    let results = Runner.run ~params specs in
    let per_flow =
      List.map2
        (fun (spec : Runner.spec) corun ->
          let kind = spec.Runner.kind in
          (kind, Runner.drop ~solo:(List.assoc kind solos) ~corun))
        specs results
    in
    let drops = List.map snd per_flow in
    {
      per_socket = placement;
      avg_drop = List.fold_left ( +. ) 0.0 drops /. float_of_int (List.length drops);
      per_flow;
    }
  in
  Parallel.mapi eval (splits ~config combo)

let best evals =
  match evals with
  | [] -> invalid_arg "Scheduler.best: empty"
  | e :: rest ->
      List.fold_left (fun b e -> if e.avg_drop < b.avg_drop then e else b) e rest

let worst evals =
  match evals with
  | [] -> invalid_arg "Scheduler.worst: empty"
  | e :: rest ->
      List.fold_left (fun w e -> if e.avg_drop > w.avg_drop then e else w) e rest

let gain evals = (worst evals).avg_drop -. (best evals).avg_drop
