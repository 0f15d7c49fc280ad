(* Buckets: values < 64 are exact; beyond that, 16 sub-buckets per power of
   two. Bucket upper bounds are reconstructible from the index. The exact
   min/max of the recorded samples ride along so the distribution's
   endpoints are reported exactly (and interior percentile estimates never
   overshoot the largest sample). *)

let linear_cutoff = 64
let sub_buckets = 16

type t = {
  buckets : int array;
  mutable count : int;
  mutable total : int;
  mutable vmin : int; (* exact smallest sample; max_int when empty *)
  mutable vmax : int; (* exact largest sample; 0 when empty *)
}

let bucket_count = linear_cutoff + ((62 - 6) * sub_buckets)

let create () =
  {
    buckets = Array.make bucket_count 0;
    count = 0;
    total = 0;
    vmin = max_int;
    vmax = 0;
  }

let index_of v =
  if v < linear_cutoff then v
  else begin
    (* v >= 64: exponent >= 6. *)
    let exp =
      let rec go e x = if x < 2 then e else go (e + 1) (x lsr 1) in
      go 0 v
    in
    let sub = (v lsr (exp - 4)) land (sub_buckets - 1) in
    Int.min (bucket_count - 1) (linear_cutoff + (((exp - 6) * sub_buckets) + sub))
  end

let upper_bound_of idx =
  if idx < linear_cutoff then idx
  else begin
    let rel = idx - linear_cutoff in
    let exp = 6 + (rel / sub_buckets) in
    let sub = rel mod sub_buckets in
    ((1 lsl exp) + ((sub + 1) lsl (exp - 4))) - 1
  end

let record t v =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  t.buckets.(index_of v) <- t.buckets.(index_of v) + 1;
  t.count <- t.count + 1;
  t.total <- t.total + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.count
let total t = t.total
let mean t = if t.count = 0 then 0.0 else float_of_int t.total /. float_of_int t.count

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile";
  if t.count = 0 then 0
  else if p = 0.0 then t.vmin
  else begin
    let rank =
      int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count))
    in
    let rank = Int.max 1 rank in
    let acc = ref 0 and result = ref 0 in
    (try
       for i = 0 to bucket_count - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= rank then begin
           result := upper_bound_of i;
           raise Exit
         end
       done
     with Exit -> ());
    (* The bucket upper bound can only overshoot when the rank lands in the
       bucket holding the largest sample; clamping there makes [p = 100]
       exact and keeps percentile monotone through the endpoints. *)
    if !result > t.vmax then t.vmax else !result
  end

let min_value t = if t.count = 0 then 0 else t.vmin
let exact_max t = t.vmax

let max_value t =
  let result = ref 0 in
  for i = 0 to bucket_count - 1 do
    if t.buckets.(i) > 0 then result := upper_bound_of i
  done;
  !result

