(* Output checks. A check without a reference to compare against (a seed
   with no recorded digest) is [Unverified]: it is reported, but counts
   neither as a pass nor as a failure. *)

type verdict = Pass | Fail of string | Unverified of string
type t = { mutable items : (string * verdict) list }

let create () = { items = [] }
let record t name v = t.items <- (name, v) :: t.items
let items t = List.rev t.items

let equal t name ~expected ~actual =
  record t name
    (if String.equal expected actual then Pass
     else Fail (Printf.sprintf "expected %s, got %s" expected actual))

let against t name ~reference ~actual =
  match reference with
  | None -> record t name (Unverified "no recorded reference for this seed")
  | Some expected -> equal t name ~expected ~actual

let all_equal t name = function
  | [] -> record t name (Fail "no samples")
  | x :: rest ->
      let bad = List.length (List.filter (fun y -> not (String.equal x y)) rest) in
      record t name
        (if bad = 0 then Pass
         else Fail (Printf.sprintf "%d of %d repeats differ" bad (List.length rest)))

let finite t name x =
  record t name
    (if Float.is_finite x then Pass else Fail (Printf.sprintf "value %g" x))

let rec json_finite = function
  | Ppp_telemetry.Json.Float f -> Float.is_finite f
  | Ppp_telemetry.Json.Arr l -> List.for_all json_finite l
  | Ppp_telemetry.Json.Obj kv -> List.for_all (fun (_, v) -> json_finite v) kv
  | Ppp_telemetry.Json.Null | Bool _ | Int _ | Str _ -> true

type summary = { checks : int; passed : int; failed : int; unverified : int }

let summary t =
  let count p = List.length (List.filter (fun (_, v) -> p v) t.items) in
  {
    checks = List.length t.items;
    passed = count (function Pass -> true | _ -> false);
    failed = count (function Fail _ -> true | _ -> false);
    unverified = count (function Unverified _ -> true | _ -> false);
  }

let print oc t =
  List.iter
    (fun (name, v) ->
      match v with
      | Pass -> Printf.fprintf oc "check %-40s pass\n" name
      | Fail why -> Printf.fprintf oc "check %-40s FAIL (%s)\n" name why
      | Unverified why -> Printf.fprintf oc "check %-40s unverified (%s)\n" name why)
    (items t)
