(* Host time. The monotonic clock reads nanoseconds without allocating, so
   it can bracket a single source call; the wall clock is only needed to
   place the runner's own spans (stamped with Unix.gettimeofday) on the same
   axis. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let mono0 = now_ns ()
let wall0 = Unix.gettimeofday ()

let ns_of_wall_s s = mono0 + int_of_float ((s -. wall0) *. 1e9)

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* A fixed integer loop, so that a slow host day shows in every run header
   instead of masquerading as a regression. ns per iteration, median of 5. *)
let calib_ns () =
  let iters = 2_000_000 in
  let once () =
    let x = ref 1 in
    let t0 = now_ns () in
    for i = 1 to iters do
      x := ((!x * 1103515245) + i) land 0x3FFFFFFF
    done;
    let dt = now_ns () - t0 in
    ignore (Sys.opaque_identity !x : int);
    float_of_int dt /. float_of_int iters
  in
  Stats.median (List.init 5 (fun _ -> once ()))
