let () =
  Harness.run "ppp"
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
      ("core", Core_tests.tests);
      ("engine-equiv", Engine_equiv_tests.tests);
      ("profile", Profile_tests.tests);
      ("monitor", Monitor_tests.tests);
      ("extras", Extra_tests.tests);
      ("extensions", Ext_tests.tests);
    ]
