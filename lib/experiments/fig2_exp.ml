open Ppp_core

type data = {
  pairs : Exp_common.pair_result list;
  averages : (Ppp_apps.App.kind * float) list;
  n_competitors : int;
}

let measure ?(params = Runner.Params.default) () =
  let kinds = Exp_common.realistic in
  let n_competitors = Sensitivity.default_competitors params.Runner.config in
  let solos = Exp_common.solo_results ~params kinds in
  let pairs = Exp_common.pair_matrix ~params ~solos kinds in
  { pairs; averages = Exp_common.avg_drop_per_target pairs; n_competitors }

let render data =
  let kinds = Exp_common.realistic in
  let open Ppp_util in
  let n = data.n_competitors in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Figure 2(a): performance drop (%%) of target X against %d \
            co-runner%s of type Y"
           n
           (if n = 1 then "" else "s"))
      ("target \\ co-runners"
      :: List.map (fun k -> Printf.sprintf "%d %s" n (Ppp_apps.App.name k)) kinds)
  in
  List.iter
    (fun target ->
      Table.add_row t
        (Ppp_apps.App.name target
        :: List.map
             (fun competitor ->
               Exp_common.pct
                 (Exp_common.find_pair data.pairs ~target ~competitor).Exp_common.drop)
             kinds))
    kinds;
  let avg =
    Table.create
      ~title:"Figure 2(b): average drop (%) per target type across scenarios"
      [ "target"; "average drop (%)" ]
  in
  List.iter
    (fun k ->
      match List.assoc_opt k data.averages with
      | Some d ->
          Table.add_row avg [ Ppp_apps.App.name k; Exp_common.pct d ]
      | None -> ())
    kinds;
  Table.to_string t ^ "\n" ^ Table.to_string avg

let data_json data =
  let open Output in
  Json.Obj
    [
      ("n_competitors", Json.Int data.n_competitors);
      ( "pairs",
        table
          [
            Col.str "target" (fun (p : Exp_common.pair_result) ->
                Ppp_apps.App.name p.Exp_common.target);
            Col.str "competitor" (fun p ->
                Ppp_apps.App.name p.Exp_common.competitor);
            Col.num "drop" (fun p -> p.Exp_common.drop);
            Col.num "competing_refs_per_sec" (fun p ->
                p.Exp_common.competing_refs_per_sec);
          ]
          data.pairs );
      ( "averages",
        table
          [
            Col.str "target" (fun (k, _) -> Ppp_apps.App.name k);
            Col.num "avg_drop" snd;
          ]
          data.averages );
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
