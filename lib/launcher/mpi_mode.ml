let ( let* ) = Result.bind

let communication opts =
  match opts.Options.mpi_halo_bytes with
  | Some bytes -> Mt_mpi.Halo_exchange bytes
  | None -> Mt_mpi.Barrier

(* One job: [repetitions] bulk-synchronous phases.  One simulation per
   phase; every rank sees the same number. *)
let one_job opts comm prepared =
  let reps = opts.Options.repetitions in
  let phase_cost = Array.make reps 0. in
  let rec simulate phase =
    if phase = reps then Ok ()
    else
      let* cycles = Protocol.timed_call prepared in
      phase_cost.(phase) <- cycles;
      simulate (phase + 1)
  in
  let* () = simulate 0 in
  Ok
    (Mt_mpi.run_spmd comm ~phases:reps
       ~compute:(fun ~rank:_ ~phase ~sharers:_ -> phase_cost.(phase))
       ~communication:(fun ~phase:_ -> communication opts)
    +. (float_of_int reps *. opts.Options.call_overhead_cycles))

(* Ranks are symmetric (same kernel, same chunk size up to the
   remainder, fair DRAM shares): rank 0's simulation stands for every
   rank, like fork mode's.  The protocol's warm-up call heats its
   caches, and one experiment is one job. *)
let run opts program abi =
  let ranks = opts.Options.mpi_ranks in
  if ranks < 1 then Error "MPI mode requires mpi_ranks >= 1"
  else
    let total = Protocol.passes_for opts abi in
    let chunk = (total + ranks - 1) / ranks in
    let* prepared = Protocol.prepare ~sharers:ranks ~passes:chunk opts program abi in
    let comm = Mt_mpi.create (Options.effective_machine opts) ~ranks in
    let* totals, _ =
      Protocol.measure_totals ~experiment:(fun () -> one_job opts comm prepared) prepared
    in
    Ok
      (Protocol.report_of_totals
         ~mode:(Printf.sprintf "mpi:%d" ranks)
         prepared ~actual_passes:total totals)
