(* NIC steering models: RSS hashing vs Flow-Director perfect steering.

   RSS is stateless — core = hash(flow) mod cores — so a flow's packets
   all take the same queue and can never pass each other: zero reordering
   by construction.

   Flow Director pins each flow to a core via an on-NIC table and
   rebalances by migrating flows between cores. Migration is where the
   documented reordering pathology lives ("Why Does Flow Director Cause
   Packet Reordering?"): the in-flight packet sitting in the old core's
   queue is overtaken by the first packet steered to the new core. We
   model exactly that with a sequence swap: when flow f migrates at its
   packet q, that packet is "stranded" (its seq q goes into a pending
   slot) and the delivery is reported as q+1; when f next appears, the
   stranded q drains. The observer therefore sees ... q-1, q+1, q, q+2 ...
   — one inversion per migration, and [migrations] is incremented at drain
   time so the detector-visible reorder count equals the migration count
   exactly (a migration whose stranded packet never drains before the run
   ends is not counted). Packet bytes are untouched — only metadata. *)

type model = Rss | Flow_director

let model_name = function Rss -> "rss" | Flow_director -> "fdir"

type t = {
  model : model;
  cores : int;
  migrate_every : int; (* FD: trigger a migration every N deliveries *)
  assign : (int, int) Hashtbl.t; (* FD table: flow -> core *)
  pending : (int, int) Hashtbl.t; (* flow -> stranded sequence number *)
  mutable delivered : int;
  mutable migrations : int;
  mutable next_core : int; (* FD round-robin placement of new flows *)
}

let create ?(migrate_every = 0) ~cores model =
  if cores <= 0 then invalid_arg "Steering.create: cores must be positive";
  if migrate_every < 0 then
    invalid_arg "Steering.create: migrate_every must be >= 0";
  {
    model;
    cores;
    migrate_every;
    assign = Hashtbl.create 256;
    pending = Hashtbl.create 16;
    delivered = 0;
    migrations = 0;
    next_core = 0;
  }

let migrations t = t.migrations

(* Deliver one packet of [flow] carrying sender sequence [seq]; returns the
   receive core and the sequence number the observer sees. Under RSS the
   sequence passes through; under Flow Director a migrating flow's stranded
   packet is swapped behind its successor. *)
let route t ~flow ~seq =
  t.delivered <- t.delivered + 1;
  let core, seq' =
    match t.model with
    | Rss -> (Ppp_util.Hashes.fnv1a_int flow mod t.cores, seq)
    | Flow_director -> (
        let core =
          match Hashtbl.find_opt t.assign flow with
          | Some c -> c
          | None ->
              let c = t.next_core mod t.cores in
              t.next_core <- t.next_core + 1;
              Hashtbl.replace t.assign flow c;
              c
        in
        match Hashtbl.find_opt t.pending flow with
        | Some stranded ->
            (* the packet left on the old core's queue finally drains —
               this is the observable inversion *)
            Hashtbl.remove t.pending flow;
            t.migrations <- t.migrations + 1;
            (core, stranded)
        | None ->
            if
              t.migrate_every > 0
              && t.delivered mod t.migrate_every = 0
              && t.cores > 1
            then begin
              (* rebalance: migrate this flow; its current packet is
                 stranded behind the old queue and overtaken *)
              let core' = (core + 1) mod t.cores in
              Hashtbl.replace t.assign flow core';
              Hashtbl.replace t.pending flow seq;
              (core', seq + 1)
            end
            else (core, seq))
  in
  (core, seq')

let source t inner =
  Source.make
    ~name:(Source.name inner ^ "+" ^ model_name t.model)
    ~fill:(fun src pkt ->
      match Source.fill inner pkt with
      | Source.Exhausted -> Source.Exhausted
      | Source.Filled ->
          let flow = Source.last_flow inner in
          let _core, seq =
            route t ~flow ~seq:(Source.last_seq inner)
          in
          Source.set_meta src ~flow ~seq;
          Source.Filled)
    ()
