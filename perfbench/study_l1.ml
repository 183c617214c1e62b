(* study_l1: the paper's Section 2 tuning loop, cold.  One description
   (loadstore.xml, 510 variants) with 16 KiB arrays on the Nehalem
   preset, mt_study's defaults (2 repetitions, 5 experiments, per
   element), one domain, and a fresh result cache and journal per
   study.  Each variant's run is a few short simulated calls, so
   per-variant overhead dominates: prepare, report, cache and journal
   writes, and the fixed cost of each simulated call. *)

open Mt_launcher
module Study = Microtools.Study
module Run_config = Study.Run_config
module Cache = Mt_parallel.Cache
module Journal = Mt_resilience.Journal

let description = "descriptions/loadstore.xml"

let options =
  {
    (Options.default Mt_machine.Config.nehalem_x5650_2s) with
    Options.array_bytes = 16 * 1024;
    per = Options.Per_element;
    repetitions = 2;
    experiments = 5;
  }

(* Variants whose fast-path and reference outcomes are compared. *)
let reference_sample = 6

(* Set-up samples per study, the study's own included, so that they
   spread over the run like the studies do. *)
let setups_per_study = 8

(* Parse the description and generate its variants. *)
let of_description () =
  match Study.of_description (Util.read_file description) options with
  | Ok study ->
    ignore (Study.variants study);
    study
  | Error msg -> failwith (description ^ ": " ^ msg)

(* Everything a user does before measuring: parse, generate, and create
   the study's cache and journal locations. *)
let setup ~seed ~dir =
  let study = of_description () in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
  let config =
    Run_config.make ~domains:1 ~cache ~seed
      ~journal_out:(Filename.concat dir "journal.jsonl") ()
  in
  (study, config)

let csv outcomes = Mt_stats.Csv.to_string (Study.csv outcomes)

(* The CSV without its verdict column: the verdict comes from the
   seeded bootstrap, every other cell is fixed by the inputs. *)
let seedless_csv outcomes =
  let doc = Study.csv outcomes in
  let keep = List.map (fun h -> h <> "verdict") (Mt_stats.Csv.header doc) in
  let project row = List.filteri (fun i _ -> List.nth keep i) row in
  let out = Mt_stats.Csv.create ~header:(project (Mt_stats.Csv.header doc)) in
  List.iter (fun r -> Mt_stats.Csv.add_row out (project r)) (Mt_stats.Csv.rows doc);
  Mt_stats.Csv.to_string out

let reports outcomes = List.map snd (Study.successes outcomes)

let count_outcomes ledger outcomes =
  List.iter
    (fun o ->
      Util.operation ledger
        (Result.is_ok o.Study.result && o.Study.exec.Study.quarantined = None))
    outcomes

(* Output checks and the regime guard, on the outcomes of one study. *)
let check_outcomes ledger ~seed outcomes =
  let text = csv outcomes in
  Util.check ledger
    (Util.md5 (seedless_csv outcomes) = Expected.study_l1_seedless_csv_md5)
    "study_l1: seed-independent CSV digest %s, expected %s"
    (Util.md5 (seedless_csv outcomes)) Expected.study_l1_seedless_csv_md5;
  if seed = Expected.default_seed then
    Util.check ledger
      (Util.md5 text = Expected.study_l1_csv_md5)
      "study_l1: CSV digest %s for seed %d, expected %s" (Util.md5 text) seed
      Expected.study_l1_csv_md5;
  let l1, ram = Probe.hit_ratios (reports outcomes) in
  Util.check ledger (l1 >= 0.99 && ram = 0.)
    "study_l1: not L1-resident (l1 hit ratio %.4f, RAM access ratio %.4f)" l1
    ram

let check_engines ledger ~seed variants =
  let rng = Random.State.make [| seed |] in
  let n = List.length variants in
  List.iter
    (fun _ ->
      let v = List.nth variants (Random.State.int rng n) in
      Util.check ledger
        (Probe.engines_agree options v = Ok true)
        "study_l1: Core.run and Core.run_reference disagree on %s"
        (Mt_creator.Variant.id v))
    (List.init reference_sample Fun.id)

let modelled_insns variants =
  List.fold_left
    (fun acc v ->
      match Probe.insns_per_call options v with
      | Ok n -> acc + (n * Probe.calls_per_report options)
      | Error msg -> failwith msg)
    0 variants

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let study_dir i = Filename.concat Util.work_root (Printf.sprintf "study-%d" i)

(* One set-up and one study, from a fresh heap; returns the set-up and
   study times and the study's peak resident set. *)
let timed_study ~seed i =
  let dir = study_dir i in
  Util.fresh_heap ();
  let (study, config), setup_s =
    Util.timed (fun () -> setup ~seed ~dir)
  in
  let outcomes, wall = Util.timed (fun () -> Study.run ~config study) in
  let rss = Util.peak_rss_mb () in
  Util.rm_rf dir;
  (setup_s, wall, rss, outcomes)

(* A set-up whose study is not run. *)
let extra_setup ~seed i =
  let dir = study_dir (1000 + i) in
  Util.fresh_heap ();
  let _, setup_s = Util.timed (fun () -> setup ~seed ~dir) in
  Util.rm_rf dir;
  setup_s

(* Only the first study's CSV and the last study's outcomes are kept:
   holding every study's outcomes would grow the heap by about 2 MB per
   study and slow each later study's garbage collection. *)
let run ~seed ~seconds =
  let ledger = Util.ledger () in
  let first_csv = ref None and last = ref [] in
  let deadline = Util.now () +. seconds in
  let samples =
    Util.until_deadline ~deadline (fun i ->
        let extra =
          List.init (setups_per_study - 1) (fun j ->
              extra_setup ~seed ((setups_per_study * i) + j))
        in
        last := [];
        let setup_s, wall, rss, outcomes = timed_study ~seed i in
        count_outcomes ledger outcomes;
        let text = csv outcomes in
        (match !first_csv with
        | None -> first_csv := Some text
        | Some first ->
          Util.check ledger (text = first) "study_l1: CSV differs between studies");
        last := outcomes;
        (setup_s :: extra, wall, rss))
  in
  check_outcomes ledger ~seed !last;
  let variants = List.map (fun o -> o.Study.variant) !last in
  check_engines ledger ~seed variants;
  let insns = float_of_int (modelled_insns variants) in
  let setups = List.concat_map (fun (s, _, _) -> s) samples in
  let walls = List.map (fun (_, w, _) -> w) samples in
  Util.note "study_l1: study walls (s)" walls;
  let n = float_of_int (List.length variants) in
  {
    Util.ledger;
    metrics =
      [
        ("setup_s", Util.median setups);
        ("variants_per_s", Util.median (List.map (fun w -> n /. w) walls));
        ("sim_mips", Util.median (List.map (fun w -> insns /. w /. 1e6) walls));
        ("peak_rss_mb", Util.median (List.map (fun (_, _, rss) -> rss) samples));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* One variant the way [Study.run] handles it with a cache and a
   journal: supervise a cache-routed launch, then journal the result.
   A probe call on the warm prepared kernel follows, in its own span. *)
let mirror_variant r log ~config ~opts ~cache ~journal variant =
  let req = Mt_creator.Variant.id variant in
  let key = Study.cache_key opts variant in
  Spans.with_ r ~req "study.variant" (fun () ->
      let prepared = ref None in
      let launch () =
        match Spans.with_ r ~req "cache.find" (fun () -> Cache.find cache key) with
        | Some data -> (Marshal.from_string data 0 : (Report.t, string) result)
        | None ->
          let result =
            match Mirror.launch_seq r ~req log opts variant with
            | Ok (report, p) ->
              prepared := Some p;
              Ok report
            | Error msg -> Error msg
          in
          Spans.with_ r ~req "cache.store" (fun () ->
              Cache.store cache key (Marshal.to_string result []));
          result
      in
      let result, exec =
        match
          Mt_resilience.Supervisor.supervise ~policy:config.Run_config.policy
            ~key:req launch
        with
        | Mt_resilience.Supervisor.Done (result, attempts) ->
          (result, { Study.attempts; quarantined = None; resumed = false })
        | Mt_resilience.Supervisor.Quarantined q ->
          ( Error (Mt_resilience.Supervisor.quarantine_to_string q),
            { Study.attempts = q.Mt_resilience.Supervisor.attempts;
              quarantined = Some q;
              resumed = false } )
      in
      Spans.with_ r ~req "journal.record" (fun () ->
          Journal.record journal ~key ~id:req
            ~data:(Marshal.to_string (result, exec.Study.quarantined) []));
      Option.iter (Mirror.probe r ~req log) !prepared;
      { Study.variant; result; exec })

(* Spans that [study.run] attributes to a layer; the rest of its wall
   time is the residual. *)
let attributed =
  [ "cache.find"; "launcher.seq"; "cache.store"; "journal.record"; "machine.run_once" ]

let traced_study r log ~seed ~dir =
  Util.fresh_heap ();
  let study = Spans.with_ r "creator.generate" of_description in
  let cache, journal =
    Spans.with_ r "study.setup_io" (fun () ->
        let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
        (cache, Journal.create (Filename.concat dir "journal.jsonl")))
  in
  let config = Run_config.make ~domains:1 ~cache ~seed () in
  let opts = Run_config.apply_options config options in
  let outcomes =
    Fun.protect
      ~finally:(fun () -> Journal.close journal)
      (fun () ->
        Spans.with_ r "study.run" (fun () ->
            List.map
              (mirror_variant r log ~config ~opts ~cache ~journal)
              (Study.variants study)))
  in
  let text = Spans.with_ r "study.csv" (fun () -> csv outcomes) in
  (outcomes, text, cache)

let run_traced ~seed ~seconds =
  let ledger = Util.ledger () in
  let r = Spans.create ~tid:1 in
  let log = Mirror.log () in
  let deadline = Util.now () +. seconds in
  let passes =
    Util.until_deadline ~deadline (fun i ->
        let ((_, wall, _, outcomes), gc), (mirrored, text, cache) =
          Util.alternate i
            ~plain:(fun () -> Util.gc_measure (fun () -> timed_study ~seed (2 * i)))
            ~traced:(fun () ->
              let dir = study_dir ((2 * i) + 1) in
              let traced = traced_study r log ~seed ~dir in
              Util.rm_rf dir;
              traced)
        in
        count_outcomes ledger outcomes;
        count_outcomes ledger mirrored;
        Util.check ledger (text = csv outcomes)
          "study_l1: the traced mirror's CSV differs from Study.run's";
        ( wall,
          gc,
          (List.length mirrored, Probe.hit_ratios (reports mirrored)),
          (Cache.hits cache, Cache.misses cache) ))
  in
  Spans.write (Util.trace_path "study_l1") [ r ];
  let k = float_of_int (List.length passes) in
  let per_pass x = x /. k in
  let ms name = per_pass (1e3 *. Spans.total r name) in
  let study_run = Spans.total r "study.run" in
  let children = Util.sum (List.map (Spans.total r) attributed) in
  let residual = study_run -. children in
  Util.check ledger (residual >= 0.)
    "study_l1: attributed children (%.6f s) exceed Study.run (%.6f s)" children
    study_run;
  let probes = Spans.durations r "machine.run_once" in
  let probe_insns = float_of_int log.Mirror.probe_insns in
  let untraced = Util.sum (List.map (fun (w, _, _, _) -> w) passes) in
  let _, _, (variants, (l1, ram)), _ = List.hd passes in
  let hits, misses =
    List.fold_left (fun (h, m) (_, _, _, (h', m')) -> (h + h', m + m')) (0, 0) passes
  in
  let gc f = Util.median (List.map (fun (_, g, _, _) -> f g) passes) in
  {
    Util.ledger;
    metrics =
      [
        ("creator.generate_ms", ms "creator.generate");
        ("creator.variants", float_of_int variants);
        ("launcher.prepare_ms", ms "launcher.prepare");
        ("launcher.measure_ms", ms "launcher.measure");
        ("launcher.report_ms", ms "launcher.report");
        ("launcher.experiments",
         per_pass (float_of_int (Mirror.experiments log)));
        ("launcher.seq_ms", ms "launcher.seq");
        ("machine.sim_insns",
         per_pass (probe_insns *. float_of_int (Probe.calls_per_report options)));
        ("machine.l1_hit_ratio", l1);
        ("machine.ram_access_ratio", ram);
        ("cache.find_ms", ms "cache.find");
        ("cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
        ("cache.store_ms", ms "cache.store");
        ("cache.stores",
         per_pass (float_of_int (List.length (Spans.durations r "cache.store"))));
        ("journal.record_ms", ms "journal.record");
        ("study.csv_ms", ms "study.csv");
        ("study.residual_ms", per_pass (1e3 *. residual));
        ("gc.minor_mwords", gc (fun g -> g.Util.minor_mwords));
        ("gc.major_collections", gc (fun g -> g.Util.major_collections));
        ("trace.overhead_ratio", (study_run -. Util.sum probes) /. untraced);
      ]
      @ Mirror.machine_metrics r log;
  }
