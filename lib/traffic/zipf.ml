type t = { cdf : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n";
  if s < 0.0 then invalid_arg "Zipf.create: s";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  { cdf }

let sample t rng =
  let u = Ppp_util.Rng.float rng 1.0 in
  (* First index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let expected_mass t k =
  if k <= 0 then 0.0
  else if k >= Array.length t.cdf then 1.0
  else t.cdf.(k - 1)
