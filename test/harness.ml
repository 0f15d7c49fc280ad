(* Keep suite names at most 13 characters (hw-properties). Alcotest pads
   the suite column to the longest suite name of its run and cuts each test
   name to fit the rest of the line (80 columns when stdout is not a
   terminal, or ALCOTEST_COLUMNS), so a longer suite name shortens how
   every long test name prints. The test executables run different suites:
   each narrows its line by what its longest suite name falls short of 13
   characters, so a test name prints the same in whichever executable runs
   it. *)
let run name suites =
  let longest =
    List.fold_left (fun m (suite, _) -> max m (String.length suite)) 0 suites
  in
  let columns =
    match Option.bind (Sys.getenv_opt "ALCOTEST_COLUMNS") int_of_string_opt with
    | Some c when c > 0 -> Some c
    | _ -> if Unix.isatty Unix.stdout then None else Some 80
  in
  Option.iter
    (fun c ->
      Unix.putenv "ALCOTEST_COLUMNS" (string_of_int (c - (13 - longest))))
    columns;
  Alcotest.run name suites
