(* The benchmark's own tests: its checks must catch a wrong result, and
   its bookkeeping (digest table, self time, quantiles) must add up. *)

open Perfbench
module R = Ppp_core.Runner

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let verdict c = match Checks.items c with [ (_, v) ] -> v | _ -> assert false

let is_pass = function Checks.Pass -> true | _ -> false
let is_fail = function Checks.Fail _ -> true | _ -> false
let is_unverified = function Checks.Unverified _ -> true | _ -> false

let check_against ~reference ~actual =
  let c = Checks.create () in
  Checks.against c "digest" ~reference ~actual;
  verdict c

(* A short co-run on the tiny machine: the digest path the mixes use. *)
let results () =
  let params = R.Params.with_windows ~warmup:50_000 ~measure:200_000 R.Params.quick in
  let specs = [ R.flow_on ~node:0 ~core:0 Ppp_apps.App.IP; R.flow_on ~node:0 ~core:1 Ppp_apps.App.MON ] in
  let b = Anatomy.build ~params specs in
  Anatomy.run ~params (Anatomy.observers ~params ~observed:false) b

let test_digests () =
  let rs = results () in
  let d = Digests.of_results rs in
  expect "digest is stable across runs" (Digests.of_results (results ()) = d);
  expect "matching digest passes" (is_pass (check_against ~reference:(Some d) ~actual:d));
  let flipped = String.mapi (fun i ch -> if i = 0 then (if ch = '0' then '1' else '0') else ch) d in
  expect "perturbed digest fails" (is_fail (check_against ~reference:(Some flipped) ~actual:d));
  let r0 = List.hd rs in
  let changed = { r0 with Ppp_hw.Engine.packets = r0.Ppp_hw.Engine.packets + 1 } :: List.tl rs in
  expect "perturbed result fails"
    (is_fail (check_against ~reference:(Some d) ~actual:(Digests.of_results changed)));
  expect "missing digest is unverified, not a pass"
    (is_unverified (check_against ~reference:None ~actual:d))

let test_digest_table () =
  expect "comment skipped" (Digests.parse_line "# key seed md5" = None);
  expect "line parsed"
    (Digests.parse_line "contended_ip 7 abc" = Some (("contended_ip", 7), "abc"));
  expect "bad line rejected"
    (match Digests.parse_line "contended_ip seven abc" with
    | exception Failure _ -> true
    | _ -> false)

let test_self_time () =
  let t = Spans.create () in
  Spans.add t ~parent:0 ~cat:"a" ~name:"root" ~start_ns:0 ~dur_ns:100 ();
  Spans.add t ~parent:1 ~cat:"b" ~name:"child" ~start_ns:10 ~dur_ns:30 ();
  Spans.add t ~parent:1 ~cat:"b" ~name:"child" ~start_ns:50 ~dur_ns:20 ();
  let rows = Spans.self_table t in
  let self name = (List.find (fun r -> r.Spans.r_name = name) rows).Spans.self_ns in
  expect "root self time excludes children" (self "root" = 50);
  expect "children grouped" (self "child" = 50)

let test_stats () =
  expect "median odd" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  expect "median even" (Stats.median [ 4.0; 1.0; 2.0; 3.0 ] = 2.5);
  expect "quantile ends" (Stats.quantile [ 1.0; 5.0 ] 1.0 = 5.0)

let () =
  test_digests ();
  test_digest_table ();
  test_self_time ();
  test_stats ();
  if !failures > 0 then exit 1
