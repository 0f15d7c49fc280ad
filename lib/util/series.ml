type t = { xs : float array; ys : float array }

let of_points pts =
  if pts = [] then invalid_arg "Series.of_points: empty";
  let sorted = List.stable_sort (fun (x1, _) (x2, _) -> compare x1 x2) pts in
  (* Keep the last y for duplicate x values. *)
  let dedup =
    List.fold_left
      (fun acc (x, y) ->
        match acc with
        | (x', _) :: rest when x' = x -> (x, y) :: rest
        | _ -> (x, y) :: acc)
      [] sorted
    |> List.rev
  in
  let n = List.length dedup in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  List.iteri
    (fun i (x, y) ->
      xs.(i) <- x;
      ys.(i) <- y)
    dedup;
  { xs; ys }

let points t = Array.init (Array.length t.xs) (fun i -> (t.xs.(i), t.ys.(i)))

let eval t x =
  let n = Array.length t.xs in
  if x <= t.xs.(0) then t.ys.(0)
  else if x >= t.xs.(n - 1) then t.ys.(n - 1)
  else begin
    (* Binary search for the bracketing interval. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.xs.(mid) <= x then lo := mid else hi := mid
    done;
    let x0 = t.xs.(!lo) and x1 = t.xs.(!hi) in
    let y0 = t.ys.(!lo) and y1 = t.ys.(!hi) in
    y0 +. ((x -. x0) /. (x1 -. x0) *. (y1 -. y0))
  end
