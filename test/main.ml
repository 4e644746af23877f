let () =
  Alcotest.run "exlengine"
    [
      ("analysis", Test_analysis.suite);
      ("optimize", Test_optimize.suite);
      ("matrix", Test_matrix.suite);
      ("stats", Test_stats.suite);
      ("ops", Test_ops.suite);
      ("exl", Test_exl.suite);
      ("mappings", Test_mappings.suite);
      ("filter", Test_filter.suite);
      ("outer", Test_outer.suite);
      ("exchange", Test_exchange.suite);
      ("columnar", Test_columnar.suite);
      ("relational", Test_relational.suite);
      ("vector", Test_vector.suite);
      ("etl", Test_etl.suite);
      ("engine", Test_engine.suite);
      ("incr", Test_incr.suite);
      ("delta", Test_incr.delta_suite);
      ("pool", Test_pool.suite);
      ("obs", Test_obs.suite);
      ("faults", Test_faults.suite);
      ("core", Test_core.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("edges", Test_edges.suite);
      ("counters", Test_counters.suite);
    ]
