let () =
  Alcotest.run "sagiv-blink-repro"
    [
      ("util", Test_util.suite);
      ("node", Test_node.suite);
      ("codec", Test_codec.suite);
      ("store", Test_store.suite);
      ("page_store", Test_page_store.suite);
      ("page_size", Test_page_size.suite);
      ("blink", Test_blink.suite);
      ("compress", Test_compress.suite);
      ("compactor", Test_compactor.suite);
      ("concurrent", Test_concurrent.suite);
      ("range", Test_range.suite);
      ("kv", Test_kv.suite);
      ("linearize", Test_linearize.suite);
      ("restart", Test_restart.suite);
      ("baselines", Test_baselines.suite);
      ("harness", Test_harness.suite);
      ("paged_file", Test_paged_file.suite);
      ("crash", Test_crash.suite);
      ("shard", Test_shard.suite);
      ("props", Test_props.suite);
      ("access", Test_access.suite);
      ("trace", Test_trace.suite);
      ("report", Test_report.suite);
      ("server", Test_server.suite);
      ("mvcc", Test_mvcc.suite);
      ("combine", Test_combine.suite);
    ]
