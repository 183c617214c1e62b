open Mt_isa
open Mt_machine
open Mt_creator

type prepared = {
  opts : Options.t;
  cfg : Config.t;
  compiled : Core.compiled;
  abi : Abi.t;
  init : (Reg.t * int) list;
  bases : int list;
  passes : int;
  memory : Memory.t;
  noise : Noise.t;
  noise_seed : int;  (* effective seed behind [noise], for previews *)
  empty_cycles : float;
  attr : Attribution.t option;
      (* bottleneck attribution sink, created when [opts.profile];
         reset after warm-up so the profile covers measured calls only *)
}

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Cost of calling an empty kernel on this machine: the baseline the
   overhead subtraction removes (Fig. 10's "overhead calculation"). *)
let fresh_empty_kernel_cycles cfg =
  let empty = [ Insn.Insn (Insn.make Insn.RET []) ] in
  let memory = Memory.create cfg in
  match Core.run_program cfg memory empty with
  | Ok r -> r.Core.cycles
  | Error _ -> 1.

(* The baseline is a pure function of the machine, so it is computed
   once per distinct config (structural equality: a [Config.t] is data
   only) instead of building a second memory hierarchy per prepare.
   The table is an immutable list swapped by CAS, so pool domains and
   serve threads share it lock-free; a racing duplicate computation is
   harmless.  It keeps the [empty_cycles_kept] most recent machines, so
   a long-lived daemon fed ever-new inline machines stays bounded. *)
let empty_cycles_kept = 32

let empty_cycles_table : (Config.t * float) list Atomic.t = Atomic.make []

let empty_kernel_cycles cfg =
  match List.assoc_opt cfg (Atomic.get empty_cycles_table) with
  | Some cycles -> cycles
  | None ->
    let cycles = fresh_empty_kernel_cycles cfg in
    let rec publish () =
      let seen = Atomic.get empty_cycles_table in
      if not (List.mem_assoc cfg seen) then begin
        let kept = List.filteri (fun i _ -> i < empty_cycles_kept - 1) seen in
        if not (Atomic.compare_and_set empty_cycles_table seen ((cfg, cycles) :: kept))
        then publish ()
      end
    in
    publish ();
    cycles

let passes_for opts abi =
  match opts.Options.trip_passes with
  | Some p -> p
  | None -> Abi.passes_for_bytes abi opts.Options.array_bytes

let prepare ?sharers ?passes ?(start_pass = 0) ?(noise_salt = 0) opts program abi =
  match Options.validate opts with
  | Error msg -> Error msg
  | Ok () -> (
    let cfg = Options.effective_machine opts in
    match Core.compile program with
    | Error e -> err "%s: %s" abi.Abi.function_name (Core.error_to_string e)
    | Ok compiled ->
      let ram_sharers =
        match opts.Options.ram_sharers with
        | Some n -> n
        | None -> Option.value ~default:1 sharers
      in
      let memory = Memory.create ~ram_sharers cfg in
      let array_count =
        match opts.Options.nbvectors with
        | Some n -> n
        | None -> List.length abi.Abi.pointers
      in
      if array_count < List.length abi.Abi.pointers then
        err "kernel %s needs %d arrays, --nbvectors gave %d" abi.Abi.function_name
          (List.length abi.Abi.pointers) array_count
      else begin
        let memmap = Memmap.create () in
        let bases =
          List.init array_count (fun i ->
              let offset = Options.alignment_for opts i in
              let region =
                Memmap.alloc memmap ~size:opts.Options.array_bytes
                  ~align:opts.Options.alignment_modulus ~offset
              in
              region.Memmap.base)
        in
        let passes =
          match passes with Some p -> p | None -> passes_for opts abi
        in
        (* A chunked (OpenMP) thread starts its traversal [start_pass]
           passes into each array. *)
        let pointer_inits =
          List.mapi
            (fun i (r, step) ->
              (r, List.nth bases (i mod array_count) + (start_pass * step)))
            abi.Abi.pointers
        in
        let init =
          (abi.Abi.counter, Abi.trip_count_for_passes abi passes) :: pointer_inits
        in
        let noise_seed = opts.Options.noise_seed + (noise_salt * 7919) in
        let noise = Noise.create ~seed:noise_seed (Options.noise_env opts) in
        Ok
          {
            opts;
            cfg;
            compiled;
            abi;
            init;
            bases;
            passes;
            memory;
            noise;
            noise_seed;
            empty_cycles = empty_kernel_cycles cfg;
            attr =
              (if opts.Options.profile then Some (Attribution.create ())
               else None);
          }
      end)

let passes_per_call p = p.passes

let array_bases p = p.bases

(* ------------------------------------------------------------------ *)
(* Deep trace lanes                                                    *)
(* ------------------------------------------------------------------ *)

(* Simulated-time lanes live on tids far above any real domain id, so
   Perfetto draws them as separate tracks from the wall-clock spans.
   Their "ts" axis is core cycles, not microseconds — within a lane the
   scale is self-consistent, which is all a timeline needs. *)
let trace_lane_tid = 1_000_000

let run_traced p tel stride =
  let tid = trace_lane_tid + (Domain.self () :> int) in
  let l1h = ref 0 and l1m = ref 0 in
  let l2h = ref 0 and l2m = ref 0 in
  let l3h = ref 0 and l3m = ref 0 in
  Memory.set_access_hook p.memory
    (Some
       (fun level ~hit ->
         match level with
         | Memory.L1 -> if hit then incr l1h else incr l1m
         | Memory.L2 -> if hit then incr l2h else incr l2m
         | Memory.L3 -> if hit then incr l3h else incr l3m
         | Memory.Ram -> ()));
  let seen = ref 0 in
  let trace pc insn ~issue ~completion =
    let n = !seen in
    seen := n + 1;
    if n mod stride = 0 then begin
      Mt_telemetry.emit tel
        (Mt_isa.Insn.to_string insn)
        ~args:[ ("pc", string_of_int pc) ]
        ~tid ~start_us:issue ~dur_us:(completion -. issue);
      let point hits misses = [ ("hit", float_of_int !hits); ("miss", float_of_int !misses) ] in
      Mt_telemetry.series ~ts_us:completion ~tid tel "cache.L1" (point l1h l1m);
      Mt_telemetry.series ~ts_us:completion ~tid tel "cache.L2" (point l2h l2m);
      Mt_telemetry.series ~ts_us:completion ~tid tel "cache.L3" (point l3h l3m)
    end
  in
  Fun.protect
    ~finally:(fun () -> Memory.set_access_hook p.memory None)
    (fun () ->
      Core.run ~init:p.init ~max_instructions:p.opts.Options.max_instructions
        ~trace ?attr:p.attr p.cfg p.memory p.compiled)

let run_once p =
  (* The detail gate is two atomic loads and a branch; when Off the
     simulate path below is exactly the pre-lane call — no closure, no
     hook, no allocation. *)
  let tel = Mt_telemetry.global () in
  let stride = Mt_telemetry.sample_stride (Mt_telemetry.detail ()) in
  match
    if stride > 0 && Mt_telemetry.enabled tel then run_traced p tel stride
    else
      Core.run ~init:p.init ~max_instructions:p.opts.Options.max_instructions
        ?attr:p.attr p.cfg p.memory p.compiled
  with
  | Ok outcome -> Ok outcome
  | Error e -> err "%s: %s" p.abi.Abi.function_name (Core.error_to_string e)

let overhead_cycles p = p.opts.Options.call_overhead_cycles +. p.empty_cycles

let per_call_divisor p actual_passes =
  match p.opts.Options.per with
  | Options.Per_pass -> float_of_int (max 1 actual_passes)
  | Options.Per_instruction ->
    float_of_int (max 1 (actual_passes * Abi.payload_per_pass p.abi))
  | Options.Per_element ->
    float_of_int (max 1 (actual_passes * p.abi.Abi.unroll))
  | Options.Per_call -> 1.

let per_label opts =
  match opts.Options.per with
  | Options.Per_pass -> "pass"
  | Options.Per_instruction -> "instruction"
  | Options.Per_element -> "element"
  | Options.Per_call -> "call"

let unit_label opts =
  match opts.Options.eval_method with
  | Options.Rdtsc -> "tsc-cycles"
  | Options.Wallclock_ns -> "ns"

let convert p core_cycles =
  match p.opts.Options.eval_method with
  | Options.Rdtsc -> core_cycles *. Config.tsc_per_core_cycle p.cfg
  | Options.Wallclock_ns -> core_cycles /. p.cfg.Config.core_ghz

(* One measured call: its core cycles.  Core.run resets the pipeline
   counters per call, so the outcome's counters are exactly the
   memory-hierarchy activity of this call. *)
let timed_call p =
  Result.map
    (fun outcome ->
      let tel = Mt_telemetry.global () in
      if Mt_telemetry.enabled tel then
        List.iter
          (fun (k, v) -> Mt_telemetry.add tel ("mem." ^ k) v)
          (Memory.counters_to_alist outcome.Core.mem);
      outcome.Core.cycles)
    (run_once p)

let measure_totals ?warm ?experiment p =
  let opts = p.opts in
  let tel = Mt_telemetry.global () in
  let ( let* ) = Result.bind in
  (* Cache heating (Section 4.5): one un-timed call, or the mode's. *)
  let* first =
    if opts.Options.warmup then
      Mt_telemetry.span tel "launcher.warmup" (fun () ->
          match warm with
          | Some warm -> Result.map (fun () -> None) (warm ())
          | None -> Result.map Option.some (run_once p))
    else Ok None
  in
  (* The warm-up call is not a measurement: restart attribution so the
     profile describes the measured steady state only. *)
  (match p.attr with Some a -> Attribution.reset a | None -> ());
  (* Trust the kernel's own iteration count when it provides one (the
     %eax convention of Section 4.4). *)
  let actual_passes =
    match p.abi.Abi.pass_counter, first with
    | Some _, Some outcome when outcome.Core.rax > 0 -> outcome.Core.rax
    | (Some _ | None), _ -> p.passes
  in
  let reps = opts.Options.repetitions in
  (* The sequential experiment: [reps] calls, each charged the call
     overhead. *)
  let sequential () =
    let rec go r acc =
      if r = 0 then Ok acc
      else
        let* cycles = timed_call p in
        go (r - 1) (acc +. cycles +. opts.Options.call_overhead_cycles)
    in
    go reps 0.
  in
  let experiment = Option.value experiment ~default:sequential in
  let run_experiment () =
    Mt_telemetry.span tel "launcher.experiment" (fun () ->
        let result = experiment () in
        if Result.is_ok result then Mt_telemetry.incr tel "launcher.experiments";
        result)
  in
  let rec collect e acc =
    if e = 0 then Ok (List.rev acc)
    else
      match run_experiment () with
      | Error msg -> Error msg
      | Ok total -> collect (e - 1) (total :: acc)
  in
  (* Adaptive stop rule.  [measure_totals] returns raw simulator totals;
     environment noise is only injected later, in [report_of_totals], by
     perturbing the totals in list order.  So the stop rule scores a
     preview of the series the report will actually contain: re-create
     the noise stream from the same seed (identical sequence), apply the
     same drop-first and overhead subtraction, and bootstrap that.
     Judging raw totals instead would see a deterministic simulator and
     always stop at the minimum. *)
  let preview_rciw totals =
    let noise = Noise.create ~seed:p.noise_seed (Options.noise_env opts) in
    let xs = List.map (Noise.perturb noise) totals in
    let xs =
      match xs with
      | _ :: (_ :: _ as rest) when opts.Options.drop_first_experiment -> rest
      | xs -> xs
    in
    let overhead =
      if opts.Options.subtract_overhead then overhead_cycles p else 0.
    in
    let xs =
      List.map
        (fun total -> Float.max 0. (total -. (overhead *. float_of_int reps)))
        xs
    in
    let q = opts.Options.quality in
    Mt_quality.rciw ~resamples:q.Mt_quality.resamples
      ~confidence:q.Mt_quality.confidence ~seed:opts.Options.quality_seed
      (Array.of_list xs)
  in
  let adaptive totals =
    Mt_telemetry.span tel "quality.adaptive" (fun () ->
        let target = opts.Options.rciw_target in
        let budget = opts.Options.max_experiments in
        (* The series is accumulated newest-first and reversed per use:
           appending with [totals @ [total]] would rebuild the whole
           list per extension (quadratic in extensions), while the
           preview below reprocesses the series anyway, so one O(n)
           reverse costs nothing extra.  Experiment order — which the
           noise stream and drop-first depend on — is preserved. *)
        let rec extend rev_totals n =
          if preview_rciw (List.rev rev_totals) <= target then begin
            Mt_telemetry.incr tel "quality.adaptive.early_stops";
            Mt_telemetry.add tel "quality.adaptive.experiments_saved"
              (budget - n);
            Ok (List.rev rev_totals)
          end
          else if n >= budget then begin
            Mt_telemetry.incr tel "quality.adaptive.budget_exhausted";
            Ok (List.rev rev_totals)
          end
          else begin
            Mt_telemetry.incr tel "quality.adaptive.extensions";
            match run_experiment () with
            | Error msg -> Error msg
            | Ok total -> extend (total :: rev_totals) (n + 1)
          end
        in
        extend (List.rev totals) (List.length totals))
  in
  let* totals =
    Mt_telemetry.span tel "launcher.measure" (fun () ->
        let ( let* ) = Result.bind in
        let* base = collect opts.Options.experiments [] in
        if opts.Options.adaptive_experiments then adaptive base else Ok base)
  in
  Ok (totals, actual_passes)

let report_of_totals ?(mode = "seq") ?noise p ~actual_passes totals =
  let opts = p.opts in
  let noise = Option.value ~default:p.noise noise in
  let totals = List.map (Noise.perturb noise) totals in
  (* Drop the extra-warm first experiment, but only when a later one
     exists: [Options.validate] rejects drop-first studies with fewer
     than 2 experiments, and a direct caller handing us a single total
     keeps it rather than crashing on [List.tl].  The drop happens
     before the overhead-exceeded flag below is computed, so a clamped
     warm-up-only experiment cannot flag an otherwise clean run. *)
  let totals =
    match totals with
    | _ :: (_ :: _ as rest) when opts.Options.drop_first_experiment -> rest
    | totals -> totals
  in
  if totals = [] then
    invalid_arg
      (Printf.sprintf "Protocol.report_of_totals(%s): no experiment totals"
         p.abi.Abi.function_name);
  let reps = opts.Options.repetitions in
  let overhead = if opts.Options.subtract_overhead then overhead_cycles p else 0. in
  let divisor = per_call_divisor p actual_passes *. float_of_int reps in
  (* When the configured overhead out-weighs a measured total the
     subtraction clamps to 0 — flag it rather than silently reporting
     zero cycles (a mis-calibrated call_overhead_cycles would otherwise
     masquerade as an infinitely fast kernel). *)
  let overhead_exceeded =
    List.exists (fun total -> total -. (overhead *. float_of_int reps) < 0.) totals
  in
  let values =
    List.map
      (fun total ->
        let net = Float.max 0. (total -. (overhead *. float_of_int reps)) in
        convert p net /. divisor)
      totals
  in
  let mem = Memory.counters p.memory in
  let profile =
    match p.attr with
    | Some a ->
      Some
        (Mt_profile.of_attribution
           ~name:(fun pc -> Core.disassemble p.compiled ~pc)
           a)
    | None -> None
  in
  let report =
    Report.make
      ~id:p.abi.Abi.function_name ~mode ~unit_label:(unit_label opts)
      ~per_label:(per_label opts) ~passes_per_call:actual_passes
      ~calls_per_experiment:reps ~overhead_exceeded ~mem
      ~thresholds:opts.Options.quality ~quality_seed:opts.Options.quality_seed
      ?profile (Array.of_list values)
  in
  let tel = Mt_telemetry.global () in
  if Mt_telemetry.enabled tel then
    Mt_telemetry.incr tel
      ("quality.verdict."
      ^ Mt_quality.verdict_kind report.Report.quality.Mt_quality.verdict);
  report

let measure ?mode p =
  match measure_totals p with
  | Error msg -> Error msg
  | Ok (totals, actual_passes) -> Ok (report_of_totals ?mode p ~actual_passes totals)
