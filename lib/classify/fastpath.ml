let fn_fast = Ppp_hw.Fn.register "flow_classify"
let fn_upcall = Ppp_hw.Fn.register "classifier_upcall"

(* Instructions of the upcall's kernel crossing, before the classifier
   search. *)
let upcall_cost = 400

type t = {
  table : Flow_table.t;
  classifier : Classifier.packed;
  mutable upcalls : int;
}

let create ~heap ?(table_entries = 4096) ?probe_limit ~backend rules =
  {
    table = Flow_table.create ~heap ?probe_limit ~entries:table_entries ();
    classifier = Classifier.make ~heap backend rules;
    upcalls = 0;
  }

let table t = t.table
let upcalls t = t.upcalls

let element t =
  (fun ctx pkt ->
    let b = ctx.Ppp_click.Ctx.builder in
    (* Parse the 5-tuple out of the headers and probe the table. *)
    Ppp_click.Ctx.touch_packet ctx pkt ~fn:fn_fast ~write:false ~pos:0
      ~len:40;
    Ppp_click.Ctx.compute ctx ~fn:fn_fast 14;
    let action = Flow_table.find t.table b ~fn:fn_fast pkt in
    let action =
      if action <> Flow_table.absent then action
      else begin
        (* Upcall: the fast path hands the packet to the slow path, which
           classifies against the full rule set and installs a megaflow
           (negative results included, so repeat misses stay cached). *)
        t.upcalls <- t.upcalls + 1;
        Ppp_click.Ctx.compute ctx ~fn:fn_upcall upcall_cost;
        let fid = Ppp_net.Flowid.of_packet pkt in
        let act = Classifier.lookup t.classifier b ~fn:fn_upcall fid in
        Flow_table.install t.table b ~fn:fn_upcall fid act;
        act
      end
    in
    if action = Rule.no_match then Ppp_click.Element.Drop
    else begin
      Ppp_net.Packet.set8 pkt 0 (action land 0xFF);
      Ppp_click.Ctx.touch_packet ctx pkt ~fn:fn_fast ~write:true ~pos:0
        ~len:1;
      Ppp_click.Element.Forward
    end)
