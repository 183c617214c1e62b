(* Tests for MicroLauncher: options, kernel sources, the measurement
   protocol, parallel modes, alignment sweeps and reports. *)

open Mt_machine
open Mt_creator
open Mt_launcher

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let x5650 = Config.nehalem_x5650_2s

let defaults = Options.default x5650

(* A small kernel for most tests: movss loads, unroll 1..2. *)
let kernel_variants =
  Creator.generate
    (Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
       ~unroll:(1, 2) ~swap_after:false ())

let variant_u u =
  List.find (fun v -> v.Variant.unroll = u) kernel_variants

let quick_opts =
  {
    defaults with
    Options.array_bytes = 16 * 1024;
    repetitions = 2;
    experiments = 3;
  }

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

let test_more_than_thirty_options () =
  check_bool "paper claim" true (Options.count > 30)

let test_option_validation () =
  let bad opts = check_bool "rejected" true (Result.is_error (Options.validate opts)) in
  bad { defaults with Options.array_bytes = 0 };
  bad { defaults with Options.repetitions = 0 };
  bad { defaults with Options.experiments = 0 };
  bad { defaults with Options.cores = 13 };
  bad { defaults with Options.openmp_threads = 42 };
  bad { defaults with Options.pin_core = Some 99 };
  bad { defaults with Options.alignment_modulus = 100 };
  bad { defaults with Options.alignments = [ 0; 8192 ] };
  bad { defaults with Options.frequency_ghz = Some 0. };
  bad { defaults with Options.drop_first_experiment = true; experiments = 1 };
  check_bool "defaults valid" true (Result.is_ok (Options.validate defaults))

let test_effective_machine () =
  let opts = { defaults with Options.frequency_ghz = Some 1.6 } in
  Alcotest.(check (float 1e-9)) "override applied" 1.6
    (Options.effective_machine opts).Config.core_ghz;
  Alcotest.(check (float 1e-9)) "nominal kept" 2.67
    (Options.effective_machine opts).Config.nominal_ghz

let test_alignment_for_cycles () =
  let opts = { defaults with Options.alignments = [ 0; 64 ] } in
  check_int "array 0" 0 (Options.alignment_for opts 0);
  check_int "array 1" 64 (Options.alignment_for opts 1);
  check_int "array 2 cycles" 0 (Options.alignment_for opts 2);
  check_int "empty list" 0 (Options.alignment_for defaults 5)

let test_noise_env_mapping () =
  let opts = { defaults with Options.pinned = false } in
  check_bool "unpinned env" false (Options.noise_env opts).Noise.pinned

(* ------------------------------------------------------------------ *)
(* Source loading                                                      *)
(* ------------------------------------------------------------------ *)

let test_source_from_variant () =
  match Source.load (Source.From_variant (variant_u 1)) with
  | Ok (_, abi) -> check_int "unroll" 1 abi.Abi.unroll
  | Error msg -> Alcotest.fail msg

let test_source_from_assembly_text () =
  let asm = Emit.assembly (variant_u 2) in
  match Source.load (Source.From_assembly_text asm) with
  | Error msg -> Alcotest.fail msg
  | Ok (program, abi) ->
    check_int "unroll from header" 2 abi.Abi.unroll;
    check_int "loads from header" 2 abi.Abi.loads_per_pass;
    check_bool "counter" true (Mt_isa.Reg.equal abi.Abi.counter (Mt_isa.Reg.gpr64 Mt_isa.Reg.RDI));
    check_bool "program non-empty" true (Mt_isa.Insn.insns program <> [])

let test_source_from_file () =
  let dir = Filename.get_temp_dir_name () in
  let path = Emit.write_assembly ~dir (variant_u 1) in
  (match Source.load (Source.From_file path) with
  | Ok (_, abi) -> check_int "unroll" 1 abi.Abi.unroll
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_source_missing_abi_header () =
  match Source.load (Source.From_assembly_text "L:\n\tret\n") with
  | Error msg -> check_bool "mentions abi" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected an error without the abi header"

let test_source_abi_roundtrip_through_file () =
  (* The creator→launcher link: emitted ABI comments carry everything
     the launcher needs. *)
  let v = variant_u 2 in
  let original = Option.get v.Variant.abi in
  match Source.load (Source.From_assembly_text (Emit.assembly v)) with
  | Error msg -> Alcotest.fail msg
  | Ok (_, parsed) ->
    check_int "step" original.Abi.counter_step parsed.Abi.counter_step;
    check_int "bytes" original.Abi.bytes_per_pass parsed.Abi.bytes_per_pass;
    check_bool "pointers" true
      (List.length original.Abi.pointers = List.length parsed.Abi.pointers)

let test_object_container_roundtrip () =
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir "mt_test_bundle.mto" in
  Emit.write_object ~path kernel_variants;
  (match Source.object_functions path with
  | Ok names ->
    check_int "both functions listed" (List.length kernel_variants) (List.length names)
  | Error msg -> Alcotest.fail msg);
  (* Pick one by name and measure it. *)
  let abi = Option.get (variant_u 2).Variant.abi in
  (match
     Launcher.launch quick_opts
       (Source.From_object (path, Some abi.Abi.function_name))
   with
  | Ok r -> Alcotest.(check string) "right function" abi.Abi.function_name r.Report.id
  | Error msg -> Alcotest.fail msg);
  (* Ambiguous selection is a helpful error. *)
  (match Source.load (Source.From_object (path, None)) with
  | Error msg -> check_bool "mentions --function" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected ambiguity error");
  (* Unknown name errors with the available list. *)
  (match Source.load (Source.From_object (path, Some "nope")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-function error");
  Sys.remove path

let test_object_single_function_implicit () =
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir "mt_test_single.mto" in
  Emit.write_object ~path [ variant_u 1 ];
  (match Launcher.launch quick_opts (Source.From_file path) with
  | Ok r -> check_bool "measured" true (r.Report.value > 0.)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let prepare_ok ?sharers ?passes opts v =
  match
    Protocol.prepare ?sharers ?passes opts (Variant.concrete_body v)
      (Option.get v.Variant.abi)
  with
  | Ok p -> p
  | Error msg -> Alcotest.fail msg

let test_protocol_passes_default_to_one_traversal () =
  let p = prepare_ok quick_opts (variant_u 2) in
  (* 16 KiB array, 8 bytes per pass at unroll 2. *)
  check_int "passes" (16 * 1024 / 8) (Protocol.passes_per_call p)

let test_protocol_trip_override () =
  let opts = { quick_opts with Options.trip_passes = Some 100 } in
  let p = prepare_ok opts (variant_u 1) in
  check_int "passes" 100 (Protocol.passes_per_call p)

let test_protocol_run_once_counts () =
  let p = prepare_ok ~passes:50 quick_opts (variant_u 1) in
  match Protocol.run_once p with
  | Ok outcome -> check_int "rax counts passes" 50 outcome.Core.rax
  | Error msg -> Alcotest.fail msg

let test_protocol_array_alignment_respected () =
  let opts = { quick_opts with Options.alignments = [ 48 ] } in
  let p = prepare_ok opts (variant_u 1) in
  List.iter
    (fun base -> check_int "offset" 48 (base mod 4096))
    (Protocol.array_bases p)

let test_measure_report_shape () =
  let p = prepare_ok quick_opts (variant_u 1) in
  match Protocol.measure p with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check_int "experiments" 3 (Array.length r.Report.experiments);
    check_bool "value positive" true (r.Report.value > 0.);
    check_bool "median is the value" true (r.Report.value = r.Report.summary.Mt_stats.median);
    Alcotest.(check string) "unit" "tsc-cycles" r.Report.unit_label;
    Alcotest.(check string) "per" "pass" r.Report.per_label

let test_measure_reproducible () =
  let value () =
    let p = prepare_ok quick_opts (variant_u 1) in
    match Protocol.measure p with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (float 1e-12)) "deterministic" (value ()) (value ())

let test_per_unit_scaling () =
  let measure per =
    let opts = { quick_opts with Options.per } in
    let p = prepare_ok opts (variant_u 2) in
    match Protocol.measure p with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  let per_pass = measure Options.Per_pass in
  let per_insn = measure Options.Per_instruction in
  let per_elem = measure Options.Per_element in
  (* Unroll 2, loads only: 2 instructions and 2 elements per pass. *)
  Alcotest.(check (float 0.02)) "instruction = pass / 2" (per_pass /. 2.) per_insn;
  Alcotest.(check (float 0.02)) "element = pass / 2" (per_pass /. 2.) per_elem

let test_eval_method_conversion () =
  let at_freq freq eval_method =
    let opts =
      { quick_opts with Options.frequency_ghz = Some freq; eval_method }
    in
    let p = prepare_ok opts (variant_u 1) in
    match Protocol.measure p with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  (* L1-resident work: wall-clock ns shrink with frequency, rdtsc
     cycles stay put only for off-core work — here they grow with the
     ratio. *)
  let ns_fast = at_freq 2.67 Options.Wallclock_ns in
  let ns_slow = at_freq 1.335 Options.Wallclock_ns in
  Alcotest.(check (float 0.05)) "ns double at half clock" (2. *. ns_fast) ns_slow;
  let tsc_fast = at_freq 2.67 Options.Rdtsc in
  let tsc_slow = at_freq 1.335 Options.Rdtsc in
  Alcotest.(check (float 0.05)) "tsc cycles also double (core-bound)" (2. *. tsc_fast) tsc_slow

let test_overhead_subtraction_reduces_value () =
  let with_flag subtract_overhead =
    let opts = { quick_opts with Options.subtract_overhead; trip_passes = Some 64 } in
    let p = prepare_ok opts (variant_u 1) in
    match Protocol.measure p with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  check_bool "subtracted is smaller" true (with_flag true < with_flag false)

let test_stability_claim () =
  (* The paper's Section 4.7: the stable environment produces a much
     tighter spread than the hostile one. *)
  let spread pinned interrupts_masked =
    let opts =
      { quick_opts with Options.pinned; interrupts_masked; experiments = 10 }
    in
    let p = prepare_ok opts (variant_u 1) in
    match Protocol.measure p with
    | Ok r -> Mt_stats.relative_spread r.Report.experiments
    | Error msg -> Alcotest.fail msg
  in
  let stable = spread true true in
  let hostile = spread false false in
  check_bool "stable is much tighter" true (stable *. 3. < hostile)

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let test_launch_dispatch_seq () =
  match Launcher.launch quick_opts (Source.From_variant (variant_u 1)) with
  | Ok r -> Alcotest.(check string) "mode" "seq" r.Report.mode
  | Error msg -> Alcotest.fail msg

let test_fork_mode () =
  let opts = { quick_opts with Options.cores = 4; array_bytes = 64 * 1024 } in
  let v = variant_u 1 in
  match Fork_mode.run opts (Variant.concrete_body v) (Option.get v.Variant.abi) with
  | Error msg -> Alcotest.fail msg
  | Ok outcome ->
    check_int "per-core reports" 4 (List.length outcome.Fork_mode.per_core);
    Alcotest.(check string) "mode" "fork:4" outcome.Fork_mode.aggregate.Report.mode;
    (* Sibling processes see the same machine, different noise. *)
    (match outcome.Fork_mode.per_core with
    | a :: b :: _ ->
      check_bool "noise differs across cores" true
        (a.Report.experiments <> b.Report.experiments)
    | _ -> Alcotest.fail "expected cores")

let test_fork_aggregate_keeps_profile () =
  let opts = { quick_opts with Options.cores = 4; profile = true } in
  let v = variant_u 1 in
  match Fork_mode.run opts (Variant.concrete_body v) (Option.get v.Variant.abi) with
  | Error msg -> Alcotest.fail msg
  | Ok outcome ->
    let per_core = (List.hd outcome.Fork_mode.per_core).Report.profile in
    check_bool "per-core profile" true (per_core <> None);
    check_bool "aggregate carries it" true
      (outcome.Fork_mode.aggregate.Report.profile = per_core)

let test_fork_contention_raises_ram_cost () =
  let ram_opts =
    {
      quick_opts with
      Options.array_bytes = 1024 * 1024;
      warmup = false;
      repetitions = 1;
      experiments = 1;
    }
  in
  let value cores =
    let opts = { ram_opts with Options.cores = cores } in
    match Launcher.launch opts (Source.From_variant (variant_u 2)) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  check_bool "12 cores slower than 1" true (value 12 > value 1 *. 1.2)

let test_fork_nonlocal_allocation_saturates_earlier () =
  (* With parent-side allocation all six processes stream from one
     socket's controller: visibly slower than first-touch local
     allocation at the same core count. *)
  let ram_opts =
    {
      quick_opts with
      Options.array_bytes = 1024 * 1024;
      warmup = false;
      repetitions = 1;
      experiments = 1;
      cores = 6;
    }
  in
  let value local_alloc =
    match
      Launcher.launch { ram_opts with Options.local_alloc }
        (Source.From_variant (variant_u 2))
    with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  check_bool "one controller is slower" true (value false > value true *. 1.3)

let test_openmp_mode () =
  let opts = { quick_opts with Options.openmp_threads = 4 } in
  match Launcher.launch opts (Source.From_variant (variant_u 1)) with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check string) "mode" "openmp:4" r.Report.mode;
    check_bool "value positive" true (r.Report.value > 0.)

let test_openmp_failing_chunk_is_error () =
  (* Too little fuel for any chunk: every simulation fails, and the
     failure must surface as an error, never as a 0-cycle chunk. *)
  let v = variant_u 1 in
  let program = Variant.concrete_body v in
  let abi = Option.get v.Variant.abi in
  let starved =
    { quick_opts with Options.openmp_threads = 4; max_instructions = 10 }
  in
  List.iter
    (fun (what, opts) ->
      check_bool (what ^ ": run") true
        (Result.is_error (Openmp_mode.run opts program abi)))
    [
      ("warm-up on", starved);
      ("warm-up off", { starved with Options.warmup = false });
      ( "dynamic schedule",
        { starved with
          Options.openmp_schedule = Options.Omp_dynamic;
          openmp_chunk = Some 64 } );
    ]

let test_concurrent_simulations_match_sequential () =
  (* Two serve-style systhreads, each measuring its own prepared
     variant at the same time: each call books on a ring file of its
     own from the pool, so interleaving the simulations (mid-call, at
     the scheduler's ticks) must not change a single number. *)
  let opts = { quick_opts with Options.array_bytes = 256 * 1024 } in
  let measure_thrice u =
    let v = variant_u u in
    match
      Protocol.prepare opts (Variant.concrete_body v) (Option.get v.Variant.abi)
    with
    | Error msg -> failwith msg
    | Ok p ->
      List.init 3 (fun _ ->
          match Protocol.measure p with
          | Ok r -> (r.Report.value, r.Report.experiments, r.Report.mem)
          | Error msg -> failwith msg)
  in
  let unrolls = [ 1; 2 ] in
  let sequential = List.map measure_thrice unrolls in
  let concurrent = Array.make (List.length unrolls) [] in
  List.mapi
    (fun k u -> Thread.create (fun () -> concurrent.(k) <- measure_thrice u) ())
    unrolls
  |> List.iter Thread.join;
  check_bool "concurrent reports equal sequential ones" true
    (Array.to_list concurrent = sequential)

let test_openmp_beats_sequential_on_big_array () =
  (* Large enough that the parallel-region overhead amortises (on the
     tiny default array OpenMP legitimately loses to its own fork/join
     cost — the Table 2 setup-overhead effect). *)
  let big = { quick_opts with Options.array_bytes = 512 * 1024 } in
  let seq =
    match Launcher.launch big (Source.From_variant (variant_u 1)) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  let omp =
    match
      Launcher.launch
        { big with Options.openmp_threads = 4 }
        (Source.From_variant (variant_u 1))
    with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  check_bool "openmp faster per pass" true (omp < seq)

let test_openmp_overhead_dominates_tiny_array () =
  let seq =
    match Launcher.launch quick_opts (Source.From_variant (variant_u 1)) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  let omp =
    match
      Launcher.launch
        { quick_opts with Options.openmp_threads = 4 }
        (Source.From_variant (variant_u 1))
    with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  check_bool "fork/join overhead dominates a 16 KiB job" true (omp > seq)

let test_standalone_fork () =
  let program =
    [
      Mt_isa.Insn.Insn (Mt_isa.Insn.make Mt_isa.Insn.NOP []);
      Mt_isa.Insn.Insn (Mt_isa.Insn.make Mt_isa.Insn.RET []);
    ]
  in
  let opts = { quick_opts with Options.cores = 4 } in
  match Launcher.run_standalone opts program with
  | Ok r -> Alcotest.(check string) "fork aggregate" "fork:4" r.Report.mode
  | Error msg -> Alcotest.fail msg

let test_standalone_mode () =
  let program =
    [
      Mt_isa.Insn.Insn (Mt_isa.Insn.make Mt_isa.Insn.NOP []);
      Mt_isa.Insn.Insn (Mt_isa.Insn.make Mt_isa.Insn.RET []);
    ]
  in
  match Launcher.run_standalone quick_opts program with
  | Ok r ->
    Alcotest.(check string) "mode" "standalone" r.Report.mode;
    Alcotest.(check string) "per call" "call" r.Report.per_label
  | Error msg -> Alcotest.fail msg

let test_run_variants_batch () =
  let outcomes = Launcher.run_variants quick_opts kernel_variants in
  check_int "all measured" (List.length kernel_variants) (List.length outcomes);
  check_bool "all ok" true
    (List.for_all (fun (_, r) -> Result.is_ok r) outcomes)

let test_best_variant () =
  let opts = { quick_opts with Options.per = Options.Per_element } in
  match Launcher.best_variant opts kernel_variants with
  | Error msg -> Alcotest.fail msg
  | Ok None -> Alcotest.fail "expected a winner"
  | Ok (Some (v, _)) ->
    (* Per element, the unrolled kernel wins. *)
    check_int "unroll 2 wins per element" 2 v.Variant.unroll

(* ------------------------------------------------------------------ *)
(* Alignment sweeps                                                    *)
(* ------------------------------------------------------------------ *)

let test_alignment_configs () =
  let configs = Alignment.configs ~arrays:2 ~candidates:[ 0; 64; 128 ] () in
  check_int "cartesian" 9 (List.length configs);
  let capped = Alignment.configs ~arrays:3 ~candidates:[ 0; 64; 128 ] ~limit:5 () in
  check_int "capped" 5 (List.length capped)

let test_alignment_configs_bounded () =
  (* 8 candidates over 8 arrays is a 16.7M-configuration space; asking
     for 4096 must do O(4096) work, not materialize the product. *)
  let t0 = Unix.gettimeofday () in
  let cs =
    Alignment.configs ~arrays:8 ~candidates:[ 0; 8; 16; 24; 32; 40; 48; 56 ]
      ~limit:4096 ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_int "limit respected" 4096 (List.length cs);
  check_bool "prompt (O(limit), not O(candidates^arrays))" true (elapsed < 2.);
  (* lexicographic order, first array most significant *)
  check_bool "first config" true (List.hd cs = [ 0; 0; 0; 0; 0; 0; 0; 0 ]);
  check_bool "second bumps the last array" true
    (List.nth cs 1 = [ 0; 0; 0; 0; 0; 0; 0; 8 ]);
  (* spaces smaller than the limit still yield the full product *)
  check_bool "full product, old order" true
    (Alignment.configs ~arrays:2 ~candidates:[ 0; 64 ] ~limit:100 ()
    = [ [ 0; 0 ]; [ 0; 64 ]; [ 64; 0 ]; [ 64; 64 ] ]);
  (* astronomically large spaces (10^64 >> max_int) must not overflow *)
  check_int "huge space" 10
    (List.length
       (Alignment.configs ~arrays:64
          ~candidates:[ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
          ~limit:10 ()))

let test_alignment_stride_configs () =
  let configs = Alignment.stride_configs ~arrays:3 ~step:1024 ~modulus:4096 in
  check_int "four configs" 4 (List.length configs);
  check_bool "first all zero" true (List.hd configs = [ 0; 0; 0 ]);
  check_bool "diagonal" true (List.nth configs 1 = [ 1024; 2048; 3072 ])

let test_alignment_sweep_and_extremes () =
  let v = variant_u 1 in
  let program = Variant.concrete_body v in
  let abi = Option.get v.Variant.abi in
  let configs = [ [ 0 ]; [ 64 ]; [ 1024 ] ] in
  match Alignment.sweep quick_opts program abi ~configs with
  | Error msg -> Alcotest.fail msg
  | Ok points ->
    check_int "three points" 3 (List.length points);
    let b = Alignment.best points and w = Alignment.worst points in
    check_bool "best <= worst" true
      (b.Alignment.report.Report.value <= w.Alignment.report.Report.value);
    check_bool "spread >= 0" true (Alignment.spread points >= 0.)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let sample_report () =
  Report.make ~id:"k" ~mode:"seq" ~unit_label:"tsc-cycles" ~per_label:"pass"
    [| 10.; 12.; 11. |]

let test_report_value_is_median () =
  Alcotest.(check (float 1e-9)) "median" 11. (sample_report ()).Report.value

let test_report_csv () =
  let csv = Report.csv [ sample_report () ] in
  let text = Mt_stats.Csv.to_string csv in
  check_bool "has id" true (String.length text > 0);
  check_int "one data row" 1 (Mt_stats.Csv.row_count csv)

let test_report_csv_full () =
  let csv = Report.csv ~full:true [ sample_report () ] in
  let header_line =
    match String.split_on_char '\n' (Mt_stats.Csv.to_string csv) with
    | h :: _ -> h
    | [] -> ""
  in
  check_bool "per-run columns" true
    (String.split_on_char ',' header_line |> List.exists (fun c -> c = "run0"))

let test_report_overhead_flag () =
  (* Default reports carry no flag and an empty flags cell... *)
  let plain = sample_report () in
  check_bool "default clear" false plain.Report.overhead_exceeded;
  Alcotest.(check string) "empty cell" "" (Report.flags_cell plain);
  (* ...while a flagged report surfaces it in the CSV. *)
  let flagged =
    Report.make ~id:"k" ~mode:"seq" ~unit_label:"tsc-cycles" ~per_label:"pass"
      ~overhead_exceeded:true [| 10.; 12.; 11. |]
  in
  Alcotest.(check string) "flag cell" "overhead-exceeds-measurement"
    (Report.flags_cell flagged);
  let text = Mt_stats.Csv.to_string (Report.csv [ flagged ]) in
  let header = List.hd (String.split_on_char '\n' text) in
  check_bool "flags column in header" true
    (String.split_on_char ',' header |> List.exists (fun c -> c = "flags"));
  check_bool "flag value in row" true
    (let needle = "overhead-exceeds-measurement" in
     let rec go i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || go (i + 1))
     in
     go 0)

let test_report_drop_first_edge_cases () =
  let opts =
    { quick_opts with Options.drop_first_experiment = true; experiments = 2 }
  in
  let v = variant_u 1 in
  match Protocol.prepare opts (Variant.concrete_body v) (Option.get v.Variant.abi) with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    (* Two totals: the extra-warm first one is dropped, and a clamped
       first experiment must not set the overhead flag — it is gone
       before the flag is computed. *)
    let r = Protocol.report_of_totals p ~actual_passes:4 [ 0.; 1e9 ] in
    check_int "first dropped" 1 r.Report.summary.Mt_stats.count;
    check_bool "dropped warm-up does not flag the run" false
      r.Report.overhead_exceeded;
    (* A singleton keeps its only total instead of dying on List.tl. *)
    let r1 = Protocol.report_of_totals p ~actual_passes:4 [ 1e9 ] in
    check_int "singleton kept" 1 r1.Report.summary.Mt_stats.count;
    (* Empty input is a positioned error naming the kernel. *)
    (match Protocol.report_of_totals p ~actual_passes:4 [] with
    | _ -> Alcotest.fail "expected Invalid_argument on empty totals"
    | exception Invalid_argument msg ->
      check_bool "positioned" true
        (let needle = "report_of_totals" in
         let rec go i =
           i + String.length needle <= String.length msg
           && (String.sub msg i (String.length needle) = needle || go (i + 1))
         in
         go 0))

let test_csv_written_by_launch () =
  let path = Filename.temp_file "mtlaunch" ".csv" in
  let opts = { quick_opts with Options.csv_path = Some path } in
  (match Launcher.launch opts (Source.From_variant (variant_u 1)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let ic = open_in path in
  let first_line = input_line ic in
  close_in ic;
  Sys.remove path;
  check_bool "csv header written" true (String.length first_line > 0)

let tests =
  [
    Alcotest.test_case "more than thirty options" `Quick test_more_than_thirty_options;
    Alcotest.test_case "option validation" `Quick test_option_validation;
    Alcotest.test_case "effective machine" `Quick test_effective_machine;
    Alcotest.test_case "alignment_for cycles" `Quick test_alignment_for_cycles;
    Alcotest.test_case "noise env mapping" `Quick test_noise_env_mapping;
    Alcotest.test_case "source from variant" `Quick test_source_from_variant;
    Alcotest.test_case "source from assembly text" `Quick test_source_from_assembly_text;
    Alcotest.test_case "source from file" `Quick test_source_from_file;
    Alcotest.test_case "source missing abi header" `Quick test_source_missing_abi_header;
    Alcotest.test_case "abi round-trip through emission" `Quick test_source_abi_roundtrip_through_file;
    Alcotest.test_case "object container round-trip" `Quick test_object_container_roundtrip;
    Alcotest.test_case "object single function implicit" `Quick test_object_single_function_implicit;
    Alcotest.test_case "passes default to one traversal" `Quick test_protocol_passes_default_to_one_traversal;
    Alcotest.test_case "trip override" `Quick test_protocol_trip_override;
    Alcotest.test_case "run_once counts passes" `Quick test_protocol_run_once_counts;
    Alcotest.test_case "array alignment respected" `Quick test_protocol_array_alignment_respected;
    Alcotest.test_case "measure report shape" `Quick test_measure_report_shape;
    Alcotest.test_case "measurement reproducible" `Quick test_measure_reproducible;
    Alcotest.test_case "per-unit scaling" `Quick test_per_unit_scaling;
    Alcotest.test_case "eval method conversion" `Quick test_eval_method_conversion;
    Alcotest.test_case "overhead subtraction" `Quick test_overhead_subtraction_reduces_value;
    Alcotest.test_case "stability claim (Section 4.7)" `Quick test_stability_claim;
    Alcotest.test_case "launch dispatch seq" `Quick test_launch_dispatch_seq;
    Alcotest.test_case "fork mode" `Quick test_fork_mode;
    Alcotest.test_case "fork aggregate keeps the profile" `Quick
      test_fork_aggregate_keeps_profile;
    Alcotest.test_case "fork contention raises RAM cost" `Quick test_fork_contention_raises_ram_cost;
    Alcotest.test_case "fork non-local allocation" `Quick test_fork_nonlocal_allocation_saturates_earlier;
    Alcotest.test_case "openmp mode" `Quick test_openmp_mode;
    Alcotest.test_case "openmp failing chunk is an error" `Quick
      test_openmp_failing_chunk_is_error;
    Alcotest.test_case "concurrent simulations match sequential" `Quick
      test_concurrent_simulations_match_sequential;
    Alcotest.test_case "openmp beats sequential (big array)" `Quick test_openmp_beats_sequential_on_big_array;
    Alcotest.test_case "openmp overhead dominates tiny array" `Quick test_openmp_overhead_dominates_tiny_array;
    Alcotest.test_case "standalone mode" `Quick test_standalone_mode;
    Alcotest.test_case "standalone fork" `Quick test_standalone_fork;
    Alcotest.test_case "run_variants batch" `Quick test_run_variants_batch;
    Alcotest.test_case "best_variant" `Quick test_best_variant;
    Alcotest.test_case "alignment configs" `Quick test_alignment_configs;
    Alcotest.test_case "alignment configs bounded work" `Quick
      test_alignment_configs_bounded;
    Alcotest.test_case "alignment stride configs" `Quick test_alignment_stride_configs;
    Alcotest.test_case "alignment sweep extremes" `Quick test_alignment_sweep_and_extremes;
    Alcotest.test_case "report value is median" `Quick test_report_value_is_median;
    Alcotest.test_case "report csv" `Quick test_report_csv;
    Alcotest.test_case "report csv full" `Quick test_report_csv_full;
    Alcotest.test_case "report overhead flag" `Quick test_report_overhead_flag;
    Alcotest.test_case "report drop-first edge cases" `Quick
      test_report_drop_first_edge_cases;
    Alcotest.test_case "csv written by launch" `Quick test_csv_written_by_launch;
  ]
