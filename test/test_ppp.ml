(* Keep suite names at most 13 characters (hw-properties): Alcotest pads
   the suite column to the longest name and cuts test names to fit the
   line, so a longer suite name shortens how every long test name prints. *)
let () =
  Alcotest.run "ppp"
    [
      ("util", Util_tests.tests);
      ("hw", Hw_tests.tests);
      ("hw-properties", Hw_prop_tests.tests);
      ("hw-diff", Hierarchy_diff_tests.tests);
      ("simmem+net", Simmem_net_tests.tests);
      ("click", Click_tests.tests);
      ("apps", Apps_tests.tests);
      ("substrate", Substrate_tests.tests);
      ("flow-cache", Flow_cache_tests.tests);
      ("classify", Classify_tests.tests);
      ("traffic", Traffic_tests.tests);
      ("core", Core_tests.tests);
      ("experiments", Experiments_tests.tests);
      ("engine-equiv", Engine_equiv_tests.tests);
      ("alloc", Alloc_tests.tests);
      ("determinism", Determinism_tests.tests);
      ("profile", Profile_tests.tests);
      ("telemetry", Telemetry_tests.tests);
      ("monitor", Monitor_tests.tests);
      ("extras", Extra_tests.tests);
      ("extensions", Ext_tests.tests);
    ]
