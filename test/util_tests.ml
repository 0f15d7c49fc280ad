open Ppp_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false
    (List.init 4 (fun _ -> Rng.bits64 a) = List.init 4 (fun _ -> Rng.bits64 b))

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_pow2 () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1_000 do
    let v = Rng.int rng 64 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 64)
  done

let test_rng_int_in () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_rng_rejects_bad_bounds () =
  let rng = Rng.create ~seed:6 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split_independent () =
  let a = Rng.create ~seed:8 in
  let b = Rng.split a in
  let xs = List.init 8 (fun _ -> Rng.bits64 a) in
  let ys = List.init 8 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_rng_uniformity () =
  (* Chi-square-ish sanity: each of 8 buckets gets 10-15% of 40000 draws. *)
  let rng = Rng.create ~seed:9 in
  let buckets = Array.make 8 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Rng.int rng 8 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true
        (c > n / 10 && c < n * 15 / 100))
    buckets

let test_rng_float_range () =
  let rng = Rng.create ~seed:10 in
  for _ = 1 to 1_000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

(* The pre-rewrite Int64 implementation of xoshiro256**, kept verbatim as
   the oracle for the native-int generator: every consumer-visible draw must
   match it bit for bit, or every seeded golden in the repo shifts. *)
module Rng_ref = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let splitmix64 state =
    let z = Int64.add !state golden in
    state := z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create ~seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
    let tmp = Int64.shift_left t.s1 17 in
    t.s2 <- Int64.logxor t.s2 t.s0;
    t.s3 <- Int64.logxor t.s3 t.s1;
    t.s1 <- Int64.logxor t.s1 t.s2;
    t.s0 <- Int64.logxor t.s0 t.s3;
    t.s2 <- Int64.logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let split t =
    let state = ref (bits64 t) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let nonneg t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

  let int t n =
    let bound = nonneg t in
    if n land (n - 1) = 0 then bound land (n - 1)
    else
      let limit = max_int - (max_int mod n) in
      let rec sample v = if v >= limit then sample (nonneg t) else v mod n in
      sample bound

  let float t x =
    let mantissa = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
    x *. (mantissa *. 0x1.0p-53)

  let bool t = Int64.logand (bits64 t) 1L = 1L
  let byte t = Int64.to_int (Int64.logand (bits64 t) 0xFFL)
end

let test_rng_matches_int64_reference () =
  List.iter
    (fun seed ->
      let a = Rng.create ~seed and b = Rng_ref.create ~seed in
      for i = 1 to 2_000 do
        (* Interleave every consumer so each one's bit extraction is pinned,
           not just the raw stream. *)
        match i mod 6 with
        | 0 ->
            Alcotest.(check int64) "bits64" (Rng_ref.bits64 b) (Rng.bits64 a)
        | 1 ->
            let n = 1 + (i mod 1000) in
            Alcotest.(check int) "int" (Rng_ref.int b n) (Rng.int a n)
        | 2 -> Alcotest.(check int) "byte" (Rng_ref.byte b) (Rng.byte a)
        | 3 -> Alcotest.(check bool) "bool" (Rng_ref.bool b) (Rng.bool a)
        | 4 ->
            Alcotest.(check (float 0.0)) "float" (Rng_ref.float b 1.0)
              (Rng.float a 1.0)
        | _ ->
            (* Powers of two take the masking fast path. *)
            Alcotest.(check int) "int pow2" (Rng_ref.int b 4096) (Rng.int a 4096)
      done)
    [ 0; 1; 42; 0x51CC5EED; max_int / 3 ]

let test_rng_split_matches_reference () =
  let a = Rng.create ~seed:99 and b = Rng_ref.create ~seed:99 in
  ignore (Rng.bits64 a : int64);
  ignore (Rng_ref.bits64 b : int64);
  let a' = Rng.split a and b' = Rng_ref.split b in
  for _ = 1 to 64 do
    Alcotest.(check int64) "split stream" (Rng_ref.bits64 b') (Rng.bits64 a');
    Alcotest.(check int64) "parent stream" (Rng_ref.bits64 b) (Rng.bits64 a)
  done

let test_rng_draw_allocation_free () =
  let rng = Rng.create ~seed:5 in
  let sink = ref 0 in
  (* Warm so the first-draw setup is off the measured path. *)
  for _ = 1 to 100 do
    sink := !sink + Rng.int rng 1000
  done;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to 100_000 do
    sink := !sink + Rng.int rng 1000 + Rng.byte rng
  done;
  let da = Gc.allocated_bytes () -. a0 in
  ignore (Sys.opaque_identity !sink : int);
  Alcotest.(check bool) "no allocation across 200k draws" true (da <= 512.0)

(* --- Hashes --- *)

let test_fnv_known () =
  (* FNV-1a 64-bit of "a" is 0xaf63dc4c8601ec8c; we mask to 62 bits. *)
  let h = Hashes.fnv1a_bytes (Bytes.of_string "a") ~pos:0 ~len:1 in
  let expected =
    Int64.to_int (Int64.logand 0xaf63dc4c8601ec8cL (Int64.of_int ((1 lsl 62) - 1)))
  in
  Alcotest.(check int) "fnv(a)" expected h

let test_fnv_slice () =
  let b = Bytes.of_string "xxhelloyy" in
  let h1 = Hashes.fnv1a_bytes b ~pos:2 ~len:5 in
  let h2 = Hashes.fnv1a_bytes (Bytes.of_string "hello") ~pos:0 ~len:5 in
  Alcotest.(check int) "slice equals standalone" h2 h1

let test_fnv_out_of_bounds () =
  Alcotest.check_raises "oob"
    (Invalid_argument "Hashes.fnv1a_bytes: slice out of bounds") (fun () ->
      ignore (Hashes.fnv1a_bytes (Bytes.create 4) ~pos:2 ~len:3))

let test_combine_nontrivial () =
  Alcotest.(check bool) "combine differs from inputs" true
    (Hashes.combine 1 2 <> Hashes.combine 2 1)

(* --- Table --- *)

let test_table_renders () =
  let t = Table.create ~title:"T" [ "a"; "bb" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "yy  22"))

let test_table_arity_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let test_table_cells () =
  Alcotest.(check string) "pct" "27.00" (Table.cell_pct 0.27);
  Alcotest.(check string) "millions" "25.85" (Table.cell_millions 25.85e6)

(* --- Series --- *)

let test_series_eval_exact () =
  let s = Series.of_points [ (0.0, 0.0); (10.0, 1.0) ] in
  check_float "at sample" 1.0 (Series.eval s 10.0)

let test_series_eval_interpolates () =
  let s = Series.of_points [ (0.0, 0.0); (10.0, 1.0) ] in
  check_float "midpoint" 0.5 (Series.eval s 5.0)

let test_series_eval_clamps () =
  let s = Series.of_points [ (1.0, 2.0); (3.0, 4.0) ] in
  check_float "below" 2.0 (Series.eval s 0.0);
  check_float "above" 4.0 (Series.eval s 100.0)

let test_series_unsorted_input () =
  let s = Series.of_points [ (3.0, 4.0); (1.0, 2.0) ] in
  check_float "sorted internally" 3.0 (Series.eval s 2.0)

let test_series_duplicate_x () =
  let s = Series.of_points [ (1.0, 2.0); (1.0, 9.0); (2.0, 0.0) ] in
  check_float "last wins" 9.0 (Series.eval s 1.0)

(* --- qcheck properties --- *)

let prop_series_eval_within_bounds =
  QCheck.Test.make ~count:200 ~name:"series eval bounded by sampled ys"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 10) (pair (float_bound_exclusive 100.0) (float_bound_exclusive 1.0)))
        (float_bound_exclusive 120.0))
    (fun (pts, x) ->
      QCheck.assume (pts <> []);
      let s = Series.of_points pts in
      let ys = List.map snd pts in
      let lo = List.fold_left Float.min (List.hd ys) ys in
      let hi = List.fold_left Float.max (List.hd ys) ys in
      let v = Series.eval s x in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_rng_int_in_range =
  QCheck.Test.make ~count:500 ~name:"Rng.int in range"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

(* --- Histogram --- *)

let test_histogram_empty_mean () =
  let h = Histogram.create () in
  check_float "empty mean is 0.0, not NaN" 0.0 (Histogram.mean h);
  Alcotest.(check int) "empty percentile is 0" 0 (Histogram.percentile h 99.0);
  Alcotest.(check int) "empty max is 0" 0 (Histogram.max_value h)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~count:500
    ~name:"histogram percentile monotone in p (endpoints included)"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (int_range 0 1_000_000))
        (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Histogram.percentile h lo <= Histogram.percentile h hi)

let prop_histogram_endpoints_exact =
  QCheck.Test.make ~count:500
    ~name:"percentile 0/100 return the exact recorded endpoints"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 1_000_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let mn = List.fold_left min (List.hd xs) xs
      and mx = List.fold_left max (List.hd xs) xs in
      Histogram.percentile h 0.0 = mn
      && Histogram.percentile h 100.0 = mx
      && Histogram.min_value h = mn
      && Histogram.exact_max h = mx)

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int pow2" `Quick test_rng_int_pow2;
    Alcotest.test_case "rng int_in" `Quick test_rng_int_in;
    Alcotest.test_case "rng rejects bad bounds" `Quick test_rng_rejects_bad_bounds;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "fnv known vector" `Quick test_fnv_known;
    Alcotest.test_case "fnv slice" `Quick test_fnv_slice;
    Alcotest.test_case "fnv bounds check" `Quick test_fnv_out_of_bounds;
    Alcotest.test_case "hash combine" `Quick test_combine_nontrivial;
    Alcotest.test_case "table renders" `Quick test_table_renders;
    Alcotest.test_case "table arity" `Quick test_table_arity_mismatch;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "series eval exact" `Quick test_series_eval_exact;
    Alcotest.test_case "series interpolation" `Quick test_series_eval_interpolates;
    Alcotest.test_case "series clamping" `Quick test_series_eval_clamps;
    Alcotest.test_case "series unsorted input" `Quick test_series_unsorted_input;
    Alcotest.test_case "series duplicate x" `Quick test_series_duplicate_x;
    Alcotest.test_case "histogram empty mean" `Quick test_histogram_empty_mean;
    Alcotest.test_case "rng matches Int64 reference" `Quick
      test_rng_matches_int64_reference;
    Alcotest.test_case "rng split matches reference" `Quick
      test_rng_split_matches_reference;
    Alcotest.test_case "rng draws allocation-free" `Quick
      test_rng_draw_allocation_free;
    QCheck_alcotest.to_alcotest prop_histogram_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_histogram_endpoints_exact;
    QCheck_alcotest.to_alcotest prop_series_eval_within_bounds;
    QCheck_alcotest.to_alcotest prop_rng_int_in_range;
  ]
