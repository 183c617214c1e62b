let ( let* ) = Result.bind

let runtime_of opts =
  let threads = opts.Options.openmp_threads in
  let rt = Mt_openmp.default_runtime ~threads in
  let chunk = Option.value ~default:1 opts.Options.openmp_chunk in
  let schedule =
    match opts.Options.openmp_schedule, opts.Options.openmp_chunk with
    | Options.Omp_static, None -> Mt_openmp.Static
    | Options.Omp_static, Some size -> Mt_openmp.Static_chunk size
    | Options.Omp_dynamic, _ -> Mt_openmp.Dynamic chunk
    | Options.Omp_guided, _ -> Mt_openmp.Guided chunk
  in
  { rt with Mt_openmp.schedule }

(* Each chunk gets a prepared state of its own: its passes, its start in
   the arrays, its thread's noise.  Only the first chunk's attribution
   is reported, so the rest are prepared without a profile sink. *)
let rec prepare_chunks opts program abi = function
  | [] -> Ok []
  | (c : Mt_openmp.chunk) :: rest ->
    let* prepared =
      Protocol.prepare ~sharers:opts.Options.openmp_threads ~passes:c.Mt_openmp.iterations
        ~start_pass:c.Mt_openmp.start_iteration ~noise_salt:c.Mt_openmp.thread opts
        program abi
    in
    let* tail = prepare_chunks { opts with Options.profile = false } program abi rest in
    Ok ((c, prepared) :: tail)

(* Warm each thread's caches once, as the sequential protocol does. *)
let rec warm = function
  | [] -> Ok ()
  | (_, p) :: rest ->
    let* _ = Protocol.run_once p in
    warm rest

let run opts program abi =
  (* Validate before the schedule is built from the options. *)
  let* () = Options.validate opts in
  if opts.Options.openmp_threads < 1 then Error "OpenMP mode requires openmp_threads >= 1"
  else
    let rt = runtime_of opts in
    (* The whole iteration space, as loop passes of the kernel. *)
    let total = Protocol.passes_for opts abi in
    let* chunks = prepare_chunks opts program abi (Mt_openmp.chunks_of rt ~total) in
    match chunks with
    | [] -> Error "OpenMP mode: empty iteration space"
    | (_, first) :: _ ->
      let cfg = Options.effective_machine opts in
      (* One experiment is [repetitions] parallel regions.  Each chunk
         runs on the state prepared for it; a failed simulation fails
         the region. *)
      let rec regions r acc =
        if r = 0 then Ok acc
        else
          let* region =
            Mt_openmp.parallel_region cfg rt chunks ~run_chunk:(fun _ p ~sharers:_ ->
                Protocol.timed_call p)
          in
          regions (r - 1) (acc +. opts.Options.call_overhead_cycles +. region)
      in
      let* totals, _ =
        Protocol.measure_totals ~warm:(fun () -> warm chunks)
          ~experiment:(fun () -> regions opts.Options.repetitions 0.)
          first
      in
      Ok
        (Protocol.report_of_totals
           ~mode:(Printf.sprintf "openmp:%d" opts.Options.openmp_threads)
           first ~actual_passes:total totals)
