let () =
  Alcotest.run "sfs"
    [
      Test_util.suite;
      Test_lru.suite;
      Test_bignum.suite;
      Test_crypto.suite;
      Test_xdr.suite;
      Test_net.suite;
      Test_nfs.suite;
      Test_memfs_model.suite;
      Test_proto.suite;
      Test_core.suite;
      Test_workload.suite;
      Test_replica.suite;
      Test_fault.suite;
      Test_integration.suite;
      Test_lint.suite;
      Test_taint.suite;
      Test_obs.suite;
      Test_sketch.suite;
      Test_trace.suite;
    ]
