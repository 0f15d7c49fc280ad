type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : ?params:Ppp_core.Runner.params -> unit -> Output.t;
}

let all =
  [
    {
      id = "table1";
      title = "Solo-run characteristics of each packet-processing type";
      paper_ref = "Table 1";
      run = Table1_exp.run;
    };
    {
      id = "fig2";
      title = "Contention-induced drop for realistic flow pairs";
      paper_ref = "Figure 2";
      run = Fig2_exp.run;
    };
    {
      id = "fig4";
      title = "Drop vs competing refs/sec per contended resource";
      paper_ref = "Figures 3-4";
      run = Fig4_exp.run;
    };
    {
      id = "fig5";
      title = "Realistic competitors fall on the SYN curve";
      paper_ref = "Figure 5";
      run = Fig5_exp.run;
    };
    {
      id = "fig6";
      title = "Worst-case drop bound vs solo hits/sec (Equation 1)";
      paper_ref = "Figure 6";
      run = Fig6_exp.run;
    };
    {
      id = "fig7";
      title = "Hit-to-miss conversion: measured, per-function, model";
      paper_ref = "Figure 7 / Appendix A";
      run = Fig7_exp.run;
    };
    {
      id = "fig8";
      title = "Prediction error across all flow pairs";
      paper_ref = "Figure 8";
      run = Fig8_exp.run;
    };
    {
      id = "fig9";
      title = "Prediction on a mixed workload";
      paper_ref = "Figure 9";
      run = Fig9_exp.run;
    };
    {
      id = "fig10";
      title = "Benefit of contention-aware scheduling";
      paper_ref = "Figure 10";
      run = Fig10_exp.run;
    };
    {
      id = "pipeline";
      title = "Parallel vs pipelined parallelization";
      paper_ref = "Section 2.2";
      run = Pipeline_exp.run;
    };
    {
      id = "flowcache";
      title = "Fast-path flow cache vs contention";
      paper_ref = "extension";
      run = Flowcache_exp.run;
    };
    {
      id = "classifier";
      title = "Flow-table fast path over dual slow-path backends";
      paper_ref = "extension";
      run = Classifier_exp.run;
    };
    {
      id = "latency";
      title = "Per-packet latency tails under contention";
      paper_ref = "extension";
      run = Latency_exp.run;
    };
    {
      id = "multiflow";
      title = "Two flows per core: private-cache contention";
      paper_ref = "Section 6";
      run = Multiflow_exp.run;
    };
    {
      id = "ablation";
      title = "Bound check, delta sweep, NUMA locality penalty";
      paper_ref = "Fig 6 / Sec 2.2 / 3.3";
      run = Ablation_exp.run;
    };
    {
      id = "throttle";
      title = "Containing hidden aggressiveness by throttling";
      paper_ref = "Section 4";
      run = Throttle_exp.run;
    };
    {
      id = "monitor";
      title = "Online contention monitor: detection and closed-loop throttle";
      paper_ref = "Section 4";
      run = Monitor_exp.run;
    };
    {
      id = "traffic";
      title = "Prediction and monitoring under realistic traffic and steering";
      paper_ref = "extension";
      run = Traffic_exp.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all

let header e =
  [
    ("id", Output.Json.Str e.id);
    ("title", Output.Json.Str e.title);
    ("paper_ref", Output.Json.Str e.paper_ref);
  ]

let envelope e (out : Output.t) =
  Output.Json.Obj (header e @ [ ("data", out.Output.data) ])

let to_json () =
  Output.Json.Arr (List.map (fun e -> Output.Json.Obj (header e)) all)
