open Mt_creator

let ( let* ) = Result.bind

let with_csv opts result =
  match result, opts.Options.csv_path with
  | Ok report, Some path ->
    Report.save_csv ~full:opts.Options.emit_full_times [ report ] path;
    result
  | (Ok _ | Error _), _ -> result

(* The one mode dispatch.  [Options.validate] (run by every mode's
   prepare) rejects more than one mode, so the order here never
   decides between them. *)
let dispatch ~seq_mode opts program abi =
  if opts.Options.mpi_ranks > 0 then Mpi_mode.run opts program abi
  else if opts.Options.openmp_threads > 0 then Openmp_mode.run opts program abi
  else if opts.Options.cores > 1 then
    Result.map (fun r -> r.Fork_mode.aggregate) (Fork_mode.run opts program abi)
  else
    let* prepared = Protocol.prepare opts program abi in
    Protocol.measure ~mode:seq_mode prepared

let launch opts source =
  let* program, abi = Source.load source in
  with_csv opts (dispatch ~seq_mode:"seq" opts program abi)

(* A stand-alone program has no trip count or arrays: give it a trivial
   ABI and report whole-call times.  "The advantage of using
   MicroLauncher is the multi-core aspect" (Section 4.1): every launch
   mode applies, so with [opts.cores > 1] the program is forked onto
   that many cores and the aggregate reported. *)
let run_standalone opts program =
  let abi =
    {
      Abi.function_name = "standalone";
      counter = Mt_isa.Reg.gpr64 Mt_isa.Reg.RDI;
      counter_step = 0;
      pointers = [];
      pass_counter = None;
      unroll = 1;
      loads_per_pass = 0;
      stores_per_pass = 0;
      bytes_per_pass = 0;
    }
  in
  let opts = { opts with Options.per = Options.Per_call; trip_passes = Some 1 } in
  with_csv opts (dispatch ~seq_mode:"standalone" opts program abi)

let run_variants opts variants =
  List.map
    (fun v -> (v, launch opts (Source.From_variant v)))
    variants

let best_variant opts variants =
  let results = run_variants opts variants in
  let rec pick acc = function
    | [] -> Ok acc
    | (_, Error msg) :: rest ->
      if opts.Options.keep_failures then pick acc rest else Error msg
    | (v, Ok report) :: rest ->
      let acc =
        match acc with
        | Some (_, best) when best.Report.value <= report.Report.value -> acc
        | Some _ | None -> Some (v, report)
      in
      pick acc rest
  in
  pick None results
