(** Ablations over the design choices DESIGN.md calls out — checks that the
    reproduced phenomena are robust consequences of the architecture model
    rather than artifacts of one parameter choice.

    - {b Equation-1 bound}: for each realistic flow, the drop measured under
      the most aggressive competition we can generate (5 x SYN_MAX) must
      stay below the kappa=1 worst-case bound computed from its solo
      hits/sec — the paper's Figure 6 claim, validated empirically.
    - {b delta sweep}: the same co-run measured under different DRAM miss
      penalties; sensitivity must grow with delta as Equation 1 predicts.
    - {b NUMA locality}: a flow placed with remote data loses throughput
      (the Section 2.2 argument for local allocation).
    - {b miss overlap (MLP)}: with the optional out-of-order-style miss
      overlap enabled, SYN competitors reach several times more refs/sec —
      explaining why the paper's competing-refs axis extends to 300M where
      the default in-order model stops near 100M.

    Each cell is simulated once: the NUMA phase's local runs are the
    bounds phase's solos, and a sweep point at the machine's own costs
    reuses the bounds phase's MON runs. *)

val run : ?params:Ppp_core.Runner.params -> unit -> Output.t
