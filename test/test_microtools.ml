(* Multi-process tests: when re-exec'd with one of these variables set,
   the binary is a writer process, not the test suite (see
   Parallel_tests.cache_stress_writer and Durable_tests.crash_writer). *)
let () =
  (match Sys.getenv_opt "MT_CACHE_STRESS_WRITER" with
  | Some spec -> Parallel_tests.cache_stress_writer spec
  | None -> ());
  match Sys.getenv_opt "MT_DURABLE_CRASH_WRITER" with
  | Some dir -> Durable_tests.crash_writer dir
  | None -> ()

let () =
  Alcotest.run "microtools"
    [
      ("xml", Xml_tests.tests);
      ("stats", Stats_tests.tests);
      ("isa", Isa_tests.tests);
      ("machine", Machine_tests.tests);
      ("core-sim", Core_sim_tests.tests);
      ("fastpath", Fastpath_tests.tests);
      ("profile", Profile_tests.tests);
      ("creator", Creator_tests.tests);
      ("launcher", Launcher_tests.tests);
      ("openmp", Openmp_tests.tests);
      ("kernels", Kernels_tests.tests);
      ("study", Study_tests.tests);
      ("parallel", Parallel_tests.tests);
      ("durable", Durable_tests.tests);
      ("resilience", Resilience_tests.tests);
      ("telemetry", Telemetry_tests.tests);
      ("obsv", Obsv_tests.tests);
      ("history", History_tests.tests);
      ("optimize", Optimize_tests.tests);
      ("quality", Quality_tests.tests);
      ("serve", Serve_tests.suite);
      ("extensions", Extensions_tests.tests);
      ("cc", Cc_tests.tests);
      ("mpi", Mpi_tests.tests);
      ("modes", Modes_tests.tests);
      ("regression", Regression_tests.tests);
      ("misc", Misc_tests.tests);
    ]
