let () = Harness.run "ppp-experiments" [ ("experiments", Experiments_tests.tests) ]
