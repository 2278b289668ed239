(* Test entry point: aggregates every library's suite. Run with
   [dune runtest]; slow suites (whole-pipeline differential tests,
   trainer smoke) are tagged `Slow and included by default. *)

let () =
  Alcotest.run "posetrl"
    [ ("support", Test_support.suite);
      ("pool", Test_pool.suite);
      ("obs", Test_obs.suite);
      ("runledger", Test_runledger.suite);
      ("telemetry", Test_telemetry.suite);
      ("health", Test_health.suite);
      ("coverage", Test_coverage.suite);
      ("prof", Test_prof.suite);
      ("ir", Test_ir.suite);
      ("cfg", Test_cfg.suite);
      ("analysis", Test_analysis.suite);
      ("interp", Test_interp.suite);
      ("passes.scalar", Test_passes_scalar.suite);
      ("passes.loop", Test_passes_loop.suite);
      ("passes.ipo", Test_passes_ipo.suite);
      ("pipeline", Test_pipeline.suite);
      ("codegen+mca", Test_codegen_mca.suite);
      ("ir2vec", Test_ir2vec.suite);
      ("nn", Test_nn.suite);
      ("rl", Test_rl.suite);
      ("odg", Test_odg.suite);
      ("core", Test_core.suite);
      ("serve", Test_serve.suite);
      ("workloads", Test_workloads.suite);
      ("utils+clone", Test_utils_clone.suite);
      ("switch+misc", Test_switch_misc.suite) ]
