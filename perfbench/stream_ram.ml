(* stream_ram: one movss load stream over an array larger than the
   modelled L3, launched sequential, OpenMP(4) and MPI(4) as in the
   paper's Figures 17/18.  The memory model and the parallel-mode loops
   do the work; creator and report cost almost nothing, and the
   experiments drift, so no two raw totals repeat exactly. *)

open Mt_launcher
module Run_config = Microtools.Study.Run_config

(* 8.8 MB of 4-byte elements against the 8 MiB L3. *)
let elements = 2_200_000

let variant_id = "loadstore-u_8-swB_LLLLLLLL"

let options =
  {
    (Options.default Mt_machine.Config.sandy_bridge_e31240) with
    Options.per = Options.Per_element;
    array_bytes = elements * 4;
    repetitions = 2;
    experiments = 5;
  }

let modes =
  [
    ("seq", options);
    ("openmp", { options with Options.openmp_threads = 4 });
    ("mpi", { options with Options.mpi_ranks = 4 });
  ]

(* Set-up takes a few milliseconds: each round is preceded by this many
   set-up samples, so they spread over the run like the rounds do. *)
let setups_per_round = 2

(* Generate the unroll-8 load/store space and keep its all-load member;
   shape every mode's options with the seed. *)
let setup ~seed =
  let spec =
    Mt_kernels.Streams.loadstore_spec ~opcode:Mt_isa.Insn.MOVSS ~unroll:(8, 8) ()
  in
  let variants = Mt_creator.Creator.generate spec in
  let variant =
    List.find (fun v -> Mt_creator.Variant.id v = variant_id) variants
  in
  let config = Run_config.make ~seed () in
  ( variant,
    List.length variants,
    List.map (fun (mode, o) -> (mode, Run_config.apply_options config o)) modes )

let check_report ledger mode (report : Report.t) =
  let got =
    ( Printf.sprintf "%h" report.Report.value,
      Option.fold ~none:[] ~some:Mt_machine.Memory.counters_to_alist
        report.Report.mem )
  in
  Util.check ledger
    (List.assoc_opt mode Expected.stream_ram = Some got)
    "stream_ram: %s report differs from the recorded one; got (%S, [%s])" mode
    (fst got)
    (String.concat "; "
       (List.map (fun (k, v) -> Printf.sprintf "(%S, %d)" k v) (snd got)));
  let _, ram = Probe.hit_ratios [ report ] in
  Util.check ledger (ram >= 0.1)
    "stream_ram: %s traffic does not reach RAM (RAM access ratio %.4f)" mode ram

let launch ledger variant (mode, opts) =
  let result, wall =
    Util.timed (fun () -> Launcher.launch opts (Source.From_variant variant))
  in
  Util.operation ledger (Result.is_ok result);
  (match result with
  | Ok report -> check_report ledger mode report
  | Error msg -> Printf.eprintf "perfbench: stream_ram %s: %s\n%!" mode msg);
  (wall, result)

(* Simulated instructions behind one launch's report.  Every mode models
   the whole iteration space per call: OpenMP splits it into chunks,
   MPI simulates one rank's share and reuses it for the others. *)
let modelled_insns_per_launch variant =
  match Probe.insns_per_call options variant with
  | Ok n -> float_of_int (n * Probe.calls_per_report options)
  | Error msg -> failwith msg

(* A round is the stream measured in all three modes, as the
   paper's Figures 17/18 compare them.  Each round starts from a fresh
   heap. *)
let run ~seed ~seconds =
  let ledger = Util.ledger () in
  let variant, _, shaped = setup ~seed in
  (* The process's first round runs slow (heap growth); keep it out of
     the timed rounds. *)
  List.iter (fun m -> ignore (launch ledger variant m)) shaped;
  let deadline = Util.now () +. seconds in
  let rounds =
    Util.until_deadline ~deadline (fun _ ->
        let setups =
          List.init setups_per_round (fun _ ->
              snd (Util.timed (fun () -> setup ~seed)))
        in
        Util.fresh_heap ();
        let walls = List.map (fun m -> fst (launch ledger variant m)) shaped in
        (Util.sum walls, Util.peak_rss_mb (), setups))
  in
  let setups = List.concat_map (fun (_, _, s) -> s) rounds in
  let insns = modelled_insns_per_launch variant in
  let walls = List.map (fun (w, _, _) -> w) rounds in
  Util.note "stream_ram: round walls (s)" walls;
  let launches = float_of_int (List.length modes) in
  {
    Util.ledger;
    metrics =
      [
        ("setup_s", Util.median setups);
        ("variants_per_s", Util.median (List.map (fun w -> launches /. w) walls));
        ("sim_mips",
         Util.median (List.map (fun w -> launches *. insns /. w /. 1e6) walls));
        ("peak_rss_mb", Util.median (List.map (fun (_, rss, _) -> rss) rounds));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Probe calls per traced sequential launch. *)
let probes_per_round = 3

let traced_round r log ledger ~seed =
  let variant, count, shaped =
    Spans.with_ r "creator.generate" (fun () -> setup ~seed)
  in
  List.iter
    (fun (mode, opts) ->
      let result =
        match mode with
        | "seq" -> (
          match Mirror.launch_seq r ~req:mode log opts variant with
          | Ok (report, p) ->
            for _ = 1 to probes_per_round do
              Mirror.probe r ~req:mode log p
            done;
            Ok report
          | Error msg -> Error msg)
        | _ ->
          Spans.with_ r ~req:mode ("launcher." ^ mode) (fun () ->
              Launcher.launch opts (Source.From_variant variant))
      in
      Util.operation ledger (Result.is_ok result);
      Result.iter (check_report ledger mode) result)
    shaped;
  count

let run_traced ~seed ~seconds =
  let ledger = Util.ledger () in
  let r = Spans.create ~tid:1 in
  let log = Mirror.log () in
  let variant, _, shaped = setup ~seed in
  (* The process's first round runs slow (heap growth); keep it out of
     the overhead ratio. *)
  List.iter (fun m -> ignore (launch ledger variant m)) shaped;
  let deadline = Util.now () +. seconds in
  let passes =
    Util.until_deadline ~deadline (fun i ->
        let (launched, gc), count =
          Util.alternate i
            ~plain:(fun () ->
              Util.gc_measure (fun () -> List.map (launch ledger variant) shaped))
            ~traced:(fun () -> traced_round r log ledger ~seed)
        in
        let wall = Util.sum (List.map fst launched) in
        let reports = List.filter_map (fun (_, res) -> Result.to_option res) launched in
        (wall, gc, count, reports))
  in
  Spans.write (Util.trace_path "stream_ram") [ r ];
  let k = float_of_int (List.length passes) in
  let ms name = 1e3 *. Spans.total r name /. k in
  let untraced = Util.sum (List.map (fun (w, _, _, _) -> w) passes) in
  let traced =
    Util.sum
      (List.map (fun (mode, _) -> Spans.total r ("launcher." ^ mode)) modes)
  in
  let _, _, count, reports = List.hd passes in
  let l1, ram = Probe.hit_ratios reports in
  let gc f = Util.median (List.map (fun (_, g, _, _) -> f g) passes) in
  {
    Util.ledger;
    metrics =
      [
        ("creator.generate_ms", ms "creator.generate");
        ("creator.variants", float_of_int count);
        ("launcher.prepare_ms", ms "launcher.prepare");
        ("launcher.measure_ms", ms "launcher.measure");
        ("launcher.report_ms", ms "launcher.report");
        ("launcher.experiments", float_of_int (Mirror.experiments log) /. k);
        ("launcher.seq_ms", ms "launcher.seq");
        ("launcher.openmp_ms", ms "launcher.openmp");
        ("launcher.mpi_ms", ms "launcher.mpi");
        ("machine.sim_insns",
         float_of_int (List.length modes) *. modelled_insns_per_launch variant);
        ("machine.l1_hit_ratio", l1);
        ("machine.ram_access_ratio", ram);
        ("gc.minor_mwords", gc (fun g -> g.Util.minor_mwords));
        ("gc.major_collections", gc (fun g -> g.Util.major_collections));
        ("trace.overhead_ratio", traced /. untraced);
      ]
      @ Mirror.machine_metrics r log;
  }
