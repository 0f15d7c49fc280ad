(* The live cache hierarchy against the one kept verbatim in Ref_hierarchy.
   Random machines (1-2 sockets, 1-6 cores per socket, power-of-two set
   counts, 1-16 ways per level, mlp 1 or 2-4) replay random streams of
   reads, writes and NIC DMA writes through both. Every op must cost the
   same cycles and leave every core's counters equal, and after every op
   each touched line held in a private cache must be L3-resident and
   directory-marked on the live hierarchy: inclusion is checked, not
   assumed. At the end residency, directory marks and controller
   transactions must agree. This is what licenses deleting the reference's
   inclusion-failure paths from lib/hw. *)

open Ppp_hw

type op = Read | Write | Dma

type case = {
  sockets : int;
  cps : int;
  l1 : int * int;  (** (sets, ways) *)
  l2 : int * int;
  l3 : int * int;
  mlp : int;
  universe : int;  (** distinct lines the stream draws from *)
  ops : (op * int * int * int) list;  (** kind, core, line index, cycle gap *)
}

let line_bytes = 64

let gen_case =
  let open QCheck.Gen in
  let level max_log_sets =
    pair (map (fun k -> 1 lsl k) (int_range 0 max_log_sets)) (int_range 1 16)
  in
  let* sockets = int_range 1 2 and* cps = int_range 1 6 in
  let* l1 = level 2 and* l2 = level 3 and* l3 = level 4 in
  let* mlp = oneof [ return 1; int_range 2 4 ] in
  let* factor = int_range 2 4 in
  let universe = factor * fst l3 * snd l3 in
  let* n = int_range 1 300 in
  let op =
    quad
      (frequency [ (4, return Read); (4, return Write); (1, return Dma) ])
      (int_bound ((sockets * cps) - 1))
      (int_bound (universe - 1))
      (int_bound 40)
  in
  let+ ops = list_repeat n op in
  { sockets; cps; l1; l2; l3; mlp; universe; ops }

let print_case c =
  let op_name = function Read -> "R" | Write -> "W" | Dma -> "D" in
  let level (sets, ways) = Printf.sprintf "%dx%d" sets ways in
  Printf.sprintf
    "%d socket(s) x %d cores, mlp %d, sets x ways %s %s %s, universe %d: %s"
    c.sockets c.cps c.mlp (level c.l1) (level c.l2) (level c.l3) c.universe
    (String.concat " "
       (List.map
          (fun (k, core, ix, gap) ->
            Printf.sprintf "%s%d:%d+%d" (op_name k) core ix gap)
          c.ops))

(* Line [ix] of the universe lives on node [ix mod sockets], so every
   node's window is drawn from and lines of different nodes share sets. *)
let addr_of c ix =
  Topology.node_base (ix mod c.sockets) + (ix / c.sockets * line_bytes)

let build c =
  let topo = Topology.create ~sockets:c.sockets ~cores_per_socket:c.cps in
  let costs = { Costs.default with Costs.mlp = c.mlp } in
  let geo (sets, ways) =
    { Cache.size_bytes = sets * ways * line_bytes; ways; line_bytes }
  and ref_geo (sets, ways) =
    { Ref_hierarchy.Cache.size_bytes = sets * ways * line_bytes; ways;
      line_bytes }
  in
  ( topo,
    Hierarchy.create topo costs
      { Hierarchy.l1 = geo c.l1; l2 = geo c.l2; l3 = geo c.l3 },
    Ref_hierarchy.create topo costs
      { Ref_hierarchy.l1 = ref_geo c.l1; l2 = ref_geo c.l2; l3 = ref_geo c.l3 }
  )

let prop_matches_reference =
  QCheck.Test.make ~count:150
    ~name:"hierarchy = reference hierarchy, inclusive after every op"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let topo, live, reference = build c in
      let cores = Topology.cores topo in
      let touched = Array.make c.universe false in
      let touched_list = ref [] in
      let now = ref 0 in
      let check_op i (kind, core, ix, gap) =
        now := !now + gap;
        let addr = addr_of c ix in
        if not touched.(ix) then begin
          touched.(ix) <- true;
          touched_list := ix :: !touched_list
        end;
        (match kind with
        | Dma ->
            Hierarchy.dma_write live ~addr ~now:!now;
            Ref_hierarchy.dma_write reference ~addr ~now:!now
        | Read | Write ->
            let write = kind = Write and fn = ix mod Fn.count () in
            let lat = Hierarchy.access live ~core ~write ~fn ~addr ~now:!now in
            let ref_lat =
              Ref_hierarchy.access reference ~core ~write ~fn ~addr ~now:!now
            in
            if lat <> ref_lat then
              QCheck.Test.fail_reportf "op %d: latency %d, reference %d" i lat
                ref_lat);
        for core = 0 to cores - 1 do
          if
            not
              (Counters.equal
                 (Hierarchy.counters live core)
                 (Ref_hierarchy.counters reference core))
          then QCheck.Test.fail_reportf "op %d: core %d counters differ" i core
        done;
        List.iter
          (fun ix ->
            let addr = addr_of c ix in
            for core = 0 to cores - 1 do
              if
                Hierarchy.private_resident live ~core ~addr
                && not
                     (Hierarchy.l3_resident live
                        ~socket:(Topology.socket_of_core topo core) ~addr
                     && Hierarchy.directory_marks live ~core ~addr)
              then
                QCheck.Test.fail_reportf
                  "op %d: line %d private to core %d but not L3-resident and \
                   marked"
                  i ix core
            done)
          !touched_list
      in
      List.iteri check_op c.ops;
      List.iter
        (fun ix ->
          let addr = addr_of c ix in
          for core = 0 to cores - 1 do
            if
              Hierarchy.private_resident live ~core ~addr
              <> Ref_hierarchy.private_resident reference ~core ~addr
              || Hierarchy.directory_marks live ~core ~addr
                 <> Ref_hierarchy.directory_marks reference ~core ~addr
            then
              QCheck.Test.fail_reportf "line %d: core %d residency differs" ix
                core
          done;
          for socket = 0 to c.sockets - 1 do
            if
              Hierarchy.l3_resident live ~socket ~addr
              <> Ref_hierarchy.l3_resident reference ~socket ~addr
            then
              QCheck.Test.fail_reportf "line %d: socket %d L3 residency differs"
                ix socket
          done)
        !touched_list;
      for node = 0 to c.sockets - 1 do
        let n = Hierarchy.memctrl_transactions live ~node
        and r = Ref_hierarchy.memctrl_transactions reference ~node in
        if n <> r then
          QCheck.Test.fail_reportf "node %d: %d controller transactions, \
                                    reference %d" node n r
      done;
      true)

let tests = [ QCheck_alcotest.to_alcotest prop_matches_reference ]
