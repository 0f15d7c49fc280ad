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

let average_columns =
  Output.
    [
      col "target" "target" kind fst;
      col "avg_drop" "average drop (%)" pct snd;
    ]

let render data =
  let kinds = Exp_common.realistic in
  let n = data.n_competitors in
  let matrix =
    Output.text_col "target \\ co-runners" Ppp_apps.App.name
    :: List.map
         (fun competitor ->
           Output.text_col
             (Printf.sprintf "%d %s" n (Ppp_apps.App.name competitor))
             (fun target ->
               Output.show Output.pct
                 (Exp_common.find_pair data.pairs ~target ~competitor)
                   .Exp_common.drop))
         kinds
  in
  Output.text_table
    ~title:
      (Printf.sprintf
         "Figure 2(a): performance drop (%%) of target X against %d \
          co-runner%s of type Y"
         n
         (if n = 1 then "" else "s"))
    matrix kinds
  ^ "\n"
  ^ Output.text_table
      ~title:"Figure 2(b): average drop (%) per target type across scenarios"
      average_columns data.averages

let data_json data =
  let open Output in
  Json.Obj
    [
      ("n_competitors", Json.Int data.n_competitors);
      ( "pairs",
        table
          [
            json_col "target" kind (fun (p : Exp_common.pair_result) ->
                p.Exp_common.target);
            json_col "competitor" kind (fun p -> p.Exp_common.competitor);
            json_col "drop" pct (fun p -> p.Exp_common.drop);
            json_col "competing_refs_per_sec" millions (fun p ->
                p.Exp_common.competing_refs_per_sec);
          ]
          data.pairs );
      ("averages", table average_columns data.averages);
    ]

let run ?params () =
  let data = measure ?params () in
  Output.make ~text:(render data) ~data:(data_json data)
