(* Bounded-Pareto flow sizes with exact integer mass accounting.

   Float arithmetic appears only at [create] time, when each flow's
   realized size in packets is drawn by inverting the bounded-Pareto CDF.
   From then on everything is integers: the per-flow sizes become a prefix
   sum, and [sample] is one bounded [Rng.int] draw plus a binary search —
   allocation-free, so a heavy-tailed source's fill loop passes the
   [alloc] test suite. *)

type t = {
  flows : int;
  sizes : int array; (* realized size of each flow, in packets *)
  cum : int array; (* cum.(i) = sizes.(0) + .. + sizes.(i) *)
  total : int; (* exact total mass = cum.(flows - 1) *)
  seq : int array; (* per-flow sequence counters for the source *)
}

(* Every flow carries at least one packet. *)
let min_pkts = 1

(* Inverse CDF of the bounded Pareto on [l, h] with tail index alpha:
   x(u) = l / (1 - u * (1 - (l/h)^alpha))^(1/alpha). *)
let quantile ~alpha ~l ~h u =
  let ratio = 1.0 -. ((l /. h) ** alpha) in
  l /. ((1.0 -. (u *. ratio)) ** (1.0 /. alpha))

let create ~seed ~flows ~alpha ?(max_pkts = 100_000) () =
  if flows <= 0 then invalid_arg "Heavy_tail.create: flows must be positive";
  if alpha <= 0.0 then invalid_arg "Heavy_tail.create: alpha must be positive";
  if max_pkts < min_pkts then
    invalid_arg "Heavy_tail.create: max_pkts must be >= 1";
  let rng = Ppp_util.Rng.create ~seed in
  let l = float_of_int min_pkts and h = float_of_int max_pkts in
  let sizes =
    Array.init flows (fun _ ->
        let u = Ppp_util.Rng.float rng 1.0 in
        let x = quantile ~alpha ~l ~h u in
        let n = int_of_float x in
        if n < min_pkts then min_pkts else if n > max_pkts then max_pkts else n)
  in
  let cum = Array.make flows 0 in
  let acc = ref 0 in
  for i = 0 to flows - 1 do
    acc := !acc + sizes.(i);
    cum.(i) <- !acc
  done;
  {
    flows;
    sizes;
    cum;
    total = !acc;
    seq = Array.make flows 0;
  }

let total_pkts t = t.total
let size t i = t.sizes.(i)

(* First index whose cumulative mass exceeds r — flow i is drawn with
   probability sizes.(i)/total, exactly. Integer-only. *)
let sample t rng =
  let r = Ppp_util.Rng.int rng t.total in
  let lo = ref 0 and hi = ref (t.flows - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cum.(mid) > r then hi := mid else lo := mid + 1
  done;
  !lo

let top_mass t ~k =
  if k <= 0 then 0.0
  else begin
    let sorted = Array.copy t.sizes in
    Array.sort (fun a b -> compare b a) sorted;
    let k = min k t.flows in
    let acc = ref 0 in
    for i = 0 to k - 1 do
      acc := !acc + sorted.(i)
    done;
    float_of_int !acc /. float_of_int t.total
  end

(* Expected fraction of total mass held by the k largest of [flows] draws:
   the largest k order statistics occupy (asymptotically) the top k/flows
   quantile band, so the fraction is the mass of that band over the mass of
   [0, 1]. The mass is that of the sizes [create] realizes, floor(x(u)),
   not of the continuous quantile: floor(x(u)) = n exactly for u in
   [cdf n, cdf (n + 1)), so each band's mass is a sum over the integer
   sizes. Flooring takes relatively more from mice than from elephants, so
   with sizes capped at 1000 the continuous quantile puts the top-k share
   0.03-0.04 too low. Used by the qcheck property as the analytic
   reference. *)
let analytic_top_mass ~flows ~alpha ?(max_pkts = 100_000) ~k () =
  if k <= 0 then 0.0
  else if k >= flows then 1.0
  else if min_pkts = max_pkts then float_of_int k /. float_of_int flows
  else begin
    let l = float_of_int min_pkts and h = float_of_int max_pkts in
    let ratio = 1.0 -. ((l /. h) ** alpha) in
    let cdf n = (1.0 -. ((l /. float_of_int n) ** alpha)) /. ratio in
    (* Mass of floor(x(u)) over u in [a, 1]. *)
    let mass a =
      let acc = ref 0.0 in
      for n = min_pkts to max_pkts - 1 do
        let lo = Float.max a (cdf n) and hi = cdf (n + 1) in
        if hi > lo then acc := !acc +. (float_of_int n *. (hi -. lo))
      done;
      !acc
    in
    let cut = 1.0 -. (float_of_int k /. float_of_int flows) in
    mass cut /. mass 0.0
  end

let source t ~rng =
  Source.make ~name:"heavy_tail"
    ~fill:(fun src pkt ->
      let f = sample t rng in
      let seq = t.seq.(f) in
      t.seq.(f) <- seq + 1;
      Gen.fill_flow pkt ~flow:f ~wire_len:64;
      Source.set_meta src ~flow:f ~seq;
      Source.Filled)
    ()
