(* The launch-mode x feature matrix.  Sequential, fork, OpenMP and MPI
   runs all go through the one experiment loop of
   [Protocol.measure_totals], so every feature must behave in each
   parallel mode as it does sequentially: adaptive experiment control,
   the profile, the launcher spans and counters, fault quarantine and
   journal resume.  Mode combinations no launch can honour are rejected
   by [Options.validate] with a message naming the flags. *)

open Mt_machine
open Mt_creator
open Mt_launcher
module Fault = Mt_resilience.Fault
module Study = Microtools.Study

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let base =
  {
    (Options.default Config.sandy_bridge_e31240) with
    Options.array_bytes = 16 * 1024;
    repetitions = 2;
    experiments = 3;
  }

let modes =
  [
    ("seq", base);
    ("fork", { base with Options.cores = 4 });
    ("openmp", { base with Options.openmp_threads = 4 });
    ("mpi", { base with Options.mpi_ranks = 4 });
  ]

let variant =
  lazy
    (match Creator.generate (Mt_kernels.Streams.movss_unrolled_spec ~unroll:2 ()) with
    | [ v ] -> v
    | _ -> Alcotest.fail "expected a single movss variant")

let launch opts =
  match Launcher.launch opts (Source.From_variant (Lazy.force variant)) with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

(* Launch with a fresh global telemetry handle; the handle is returned
   for its counters and spans. *)
let launch_traced opts =
  (* Generate the kernel first: its creator spans are not the launch's. *)
  ignore (Lazy.force variant);
  let tel = Mt_telemetry.create () in
  Mt_telemetry.set_global tel;
  Fun.protect
    ~finally:(fun () -> Mt_telemetry.set_global Mt_telemetry.disabled)
    (fun () -> (launch opts, tel))

(* Apply [shape] to every mode's options and compare each parallel
   mode's [observe] against the sequential one. *)
let same_as_seq ~what shape observe pp =
  let seen = List.map (fun (mode, opts) -> (mode, observe (shape opts))) modes in
  let seq = List.assoc "seq" seen in
  List.iter
    (fun (mode, got) ->
      if got <> seq then
        Alcotest.failf "%s: %s gives %s, seq gives %s" what mode (pp got) (pp seq))
    seen;
  seq

let adaptive opts =
  {
    opts with
    Options.adaptive_experiments = true;
    rciw_target = 1e-9;
    max_experiments = 12;
  }

let test_adaptive () =
  let counts =
    same_as_seq ~what:"adaptive" adaptive
      (fun opts ->
        let r, tel = launch_traced opts in
        ( Array.length r.Report.experiments,
          Mt_telemetry.counter tel "launcher.experiments",
          Mt_telemetry.counter tel "quality.adaptive.budget_exhausted" ))
      (fun (n, c, b) -> Printf.sprintf "%d experiments, counter %d, exhausted %d" n c b)
  in
  check_bool "extended to the ceiling" true (counts = (12, 12, 1))

(* Dynamic instructions behind a profile: a pure function of the calls
   it covers, whatever the cache state. *)
let profiled_insns opts =
  match (launch { opts with Options.profile = true }).Report.profile with
  | Some b ->
    List.fold_left (fun n c -> n + c.Mt_profile.cat_insns) 0 b.Mt_profile.cats
  | None -> -1

let test_profile () =
  List.iter
    (fun (mode, opts) ->
      let warm = profiled_insns opts in
      check_bool (mode ^ ": profile present") true (warm > 0);
      check_int (mode ^ ": warm-up excluded") warm
        (profiled_insns { opts with Options.warmup = false }))
    modes

let test_spans_and_counters () =
  let spans =
    same_as_seq ~what:"spans and counters" adaptive
      (fun opts ->
        let _, tel = launch_traced opts in
        ( List.map
            (fun e -> (e.Mt_telemetry.name, e.Mt_telemetry.depth))
            (Mt_telemetry.events tel),
          List.filter_map
            (fun (k, _) ->
              if String.length k > 4 && String.sub k 0 4 = "mem." then Some k else None)
            (Mt_telemetry.counters tel),
          Mt_telemetry.counter tel "launcher.experiments" ))
      (fun (events, mem, n) ->
        Printf.sprintf "%d spans, mem counters [%s], %d experiments"
          (List.length events) (String.concat " " mem) n)
  in
  let events, mem, _ = spans in
  List.iter
    (fun span ->
      check_bool (span ^ " recorded") true (List.mem_assoc span events))
    [ "launcher.warmup"; "launcher.measure"; "launcher.experiment"; "quality.adaptive" ];
  check_bool "mem counters recorded" true (List.mem "mem.accesses" mem)

(* Two movss load/store variants per unroll factor: a small study. *)
let study opts =
  Study.create
    (Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~stride:4
       ~unroll:(1, 1) ())
    opts

let config ?(faults = []) ?journal ?resume () =
  let open Study.Run_config in
  default |> with_faults faults
  |> with_policy
       (Mt_resilience.Policy.make ~retries:0 ~backoff_base_s:0. ~backoff_jitter:0. ())
  |> with_journal journal |> with_resume resume

let csv outcomes = Mt_stats.Csv.to_string (Study.csv outcomes)

let test_fault_quarantine () =
  let quarantined =
    same_as_seq ~what:"fault" Fun.id
      (fun opts ->
        Study.run
          ~config:(config ~faults:[ Fault.make ~times:1 ~index:0 Fault.Raise ] ())
          (study opts)
        |> Study.quarantined
        |> List.map (fun (v, _) -> Variant.id v))
      (String.concat ",")
  in
  check_int "one variant quarantined" 1 (List.length quarantined)

let test_journal_resume () =
  List.iter
    (fun (mode, opts) ->
      let s = study opts in
      let baseline = csv (Study.run ~config:(config ()) s) in
      let journal = Filename.temp_file "mt-modes-journal" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove journal)
        (fun () ->
          ignore (Study.run ~config:(config ~journal ()) s);
          (* Keep the first record only, as a crash would. *)
          let first =
            In_channel.with_open_bin journal In_channel.input_line |> Option.get
          in
          Out_channel.with_open_bin journal (fun oc ->
              output_string oc (first ^ "\n"));
          let resumed = Study.run ~config:(config ~journal ~resume:journal ()) s in
          check_int (mode ^ ": one variant resumed") 1 (Study.resumed_count resumed);
          check_string (mode ^ ": resumed CSV is byte-identical") baseline (csv resumed)))
    modes

let test_conflicts_rejected () =
  let rejected opts needles =
    match Options.validate opts with
    | Ok () -> Alcotest.failf "accepted: %s" (String.concat " " needles)
    | Error msg ->
      List.iter
        (fun needle ->
          let found =
            let n = String.length needle in
            let rec go i =
              i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1))
            in
            go 0
          in
          if not found then Alcotest.failf "%S does not name %s" msg needle)
        needles
  in
  rejected { base with Options.cores = 2; openmp_threads = 4 } [ "--cores 2"; "--openmp 4" ];
  rejected { base with Options.cores = 2; mpi_ranks = 4 } [ "--cores 2"; "--mpi 4" ];
  rejected { base with Options.openmp_threads = 4; mpi_ranks = 4 } [ "--openmp 4"; "--mpi 4" ];
  rejected
    { base with Options.cores = 2; openmp_threads = 4; mpi_ranks = 4 }
    [ "--cores 2"; "--openmp 4"; "--mpi 4" ];
  rejected { base with Options.openmp_schedule = Options.Omp_dynamic } [ "--schedule"; "--openmp" ];
  rejected { base with Options.openmp_schedule = Options.Omp_guided } [ "--schedule"; "--openmp" ];
  rejected { base with Options.openmp_chunk = Some 64 } [ "--chunk"; "--openmp" ];
  rejected { base with Options.mpi_halo_bytes = Some 4096 } [ "--halo"; "--mpi" ];
  rejected
    { base with Options.cores = 4; mpi_halo_bytes = Some 4096 }
    [ "--halo"; "--mpi" ];
  rejected
    { base with Options.openmp_threads = 4; openmp_chunk = Some 0 }
    [ "--chunk"; "0" ];
  rejected
    { base with Options.mpi_ranks = 4; mpi_halo_bytes = Some (-4096) }
    [ "--halo"; "-4096" ];
  (* The OpenMP schedule is built from the options before any prepare:
     a bad chunk is still an error, not an exception. *)
  check_bool "launch reports the rejection" true
    (Result.is_error
       (Launcher.launch
          { base with Options.openmp_threads = 4; openmp_chunk = Some 0 }
          (Source.From_variant (Lazy.force variant))));
  (* Every mode on its own, with its own knobs, stays valid. *)
  List.iter
    (fun opts -> check_bool "valid" true (Result.is_ok (Options.validate opts)))
    [
      { base with Options.openmp_threads = 4; openmp_schedule = Options.Omp_guided;
                  openmp_chunk = Some 64 };
      { base with Options.mpi_ranks = 4; mpi_halo_bytes = Some 4096 };
      { base with Options.cores = 4 };
    ]

let tests =
  [
    Alcotest.test_case "adaptive extends every mode alike" `Quick test_adaptive;
    Alcotest.test_case "profile present, warm-up excluded" `Quick test_profile;
    Alcotest.test_case "spans and counters match seq" `Quick test_spans_and_counters;
    Alcotest.test_case "fault quarantines the same variant" `Quick test_fault_quarantine;
    Alcotest.test_case "journal resume byte-identical" `Quick test_journal_resume;
    Alcotest.test_case "mode conflicts rejected" `Quick test_conflicts_rejected;
  ]
