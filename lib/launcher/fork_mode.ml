open Mt_machine
open Mt_creator

type outcome = { aggregate : Report.t; per_core : Report.t list }

let run opts program abi =
  let cores = opts.Options.cores in
  let ( let* ) = Result.bind in
  (* Each forked process allocates its own arrays after pinning
     (first-touch, [local_alloc], the default).  When the parent
     allocated them instead, every process hits the parent's node: one
     memory controller serves everyone and the interleaved budget is
     gone. *)
  let opts =
    if opts.Options.local_alloc then opts
    else
      { opts with
        Options.machine =
          { opts.Options.machine with Mt_machine.Config.memory_interleaved = false } }
  in
  let* prepared = Protocol.prepare ~sharers:cores opts program abi in
  let* totals, actual_passes = Protocol.measure_totals prepared in
  let mode = Printf.sprintf "fork:%d" cores in
  let per_core =
    List.init cores (fun core ->
        let noise =
          Noise.create
            ~seed:(opts.Options.noise_seed + (7919 * (core + 1)))
            (Options.noise_env opts)
        in
        let report = Protocol.report_of_totals ~mode ~noise prepared ~actual_passes totals in
        { report with Report.id = Printf.sprintf "%s@core%d" report.Report.id core })
  in
  match per_core with
  | [] -> Error "fork mode with zero cores"
  | first :: _ ->
    let experiments = Array.length first.Report.experiments in
    let mean_per_experiment =
      Array.init experiments (fun e ->
          let sum =
            List.fold_left (fun acc r -> acc +. r.Report.experiments.(e)) 0. per_core
          in
          sum /. float_of_int cores)
    in
    let aggregate =
      Report.make ~id:abi.Abi.function_name ~mode
        ~unit_label:first.Report.unit_label ~per_label:first.Report.per_label
        ~passes_per_call:actual_passes
        ~calls_per_experiment:opts.Options.repetitions
        ~overhead_exceeded:
          (List.exists (fun r -> r.Report.overhead_exceeded) per_core)
        ?mem:first.Report.mem ?profile:first.Report.profile
        ~thresholds:opts.Options.quality
        ~quality_seed:opts.Options.quality_seed mean_per_experiment
    in
    Ok { aggregate; per_core }
