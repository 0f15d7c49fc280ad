let paper_delta = 43.75e-9

let drop ~delta ~kappa ~hits_per_sec =
  if delta < 0.0 || kappa < 0.0 || kappa > 1.0 || hits_per_sec < 0.0 then
    invalid_arg "Equation1.drop";
  let dkh = delta *. kappa *. hits_per_sec in
  if dkh = 0.0 then 0.0 else 1.0 /. (1.0 +. (1.0 /. dkh))

let max_drop ~delta ~hits_per_sec = drop ~delta ~kappa:1.0 ~hits_per_sec
