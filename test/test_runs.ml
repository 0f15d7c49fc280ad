let () =
  Harness.run "ppp-runs"
    [
      ("traffic", Traffic_tests.tests);
      ("alloc", Alloc_tests.tests);
      ("determinism", Determinism_tests.tests);
      ("telemetry", Telemetry_tests.tests);
    ]
