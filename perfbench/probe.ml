(* Benchmark-side reads of the simulator: the modelled instruction count
   behind a report, and the fast-path-versus-reference comparison. *)

open Mt_launcher

let ( let* ) = Result.bind

(* Calls the sequential protocol simulates for one report: the warm-up
   plus experiments x repetitions (the adaptive controller stays off in
   every workload). *)
let calls_per_report (opts : Options.t) =
  (if opts.Options.warmup then 1 else 0)
  + (opts.Options.experiments * opts.Options.repetitions)

let prepared opts variant =
  let* program, abi = Source.load (Source.From_variant variant) in
  let* p = Protocol.prepare opts program abi in
  Ok (program, abi, p)

(* Dynamic instructions of one call.  The kernels branch only on their
   trip counter, so the count is fixed by the variant and the options. *)
let insns_per_call opts variant =
  let* _, _, p = prepared opts variant in
  let* o = Protocol.run_once p in
  Ok o.Mt_machine.Core.instructions

(* [Core.run] and [Core.run_reference] on the launcher's register
   set-up, each on its own fresh memory pipeline, two calls in a row
   (cold, then warm caches): the outcomes must be equal. *)
let engines_agree (opts : Options.t) variant =
  let* program, abi, p = prepared opts variant in
  let* compiled =
    Result.map_error Mt_machine.Core.error_to_string
      (Mt_machine.Core.compile program)
  in
  let bases = Protocol.array_bases p in
  let init =
    (abi.Mt_creator.Abi.counter,
     Mt_creator.Abi.trip_count_for_passes abi (Protocol.passes_per_call p))
    :: List.mapi
         (fun i (reg, _) -> (reg, List.nth bases (i mod List.length bases)))
         abi.Mt_creator.Abi.pointers
  in
  let cfg = Options.effective_machine opts in
  let max_instructions = opts.Options.max_instructions in
  let calls engine =
    let memory = Mt_machine.Memory.create cfg in
    List.init 2 (fun _ -> engine memory)
  in
  let fast m = Mt_machine.Core.run ~init ~max_instructions cfg m compiled in
  let reference m =
    Mt_machine.Core.run_reference ~init ~max_instructions cfg m compiled
  in
  Ok (calls fast = calls reference)

(* L1 hit and RAM access shares of all accesses, summed over the
   memory counters the reports carry. *)
let hit_ratios reports =
  let accesses, l1, ram =
    List.fold_left
      (fun (a, l, r) (report : Report.t) ->
        match report.Report.mem with
        | Some m ->
          ( a + m.Mt_machine.Memory.accesses,
            l + m.Mt_machine.Memory.l1_hits,
            r + m.Mt_machine.Memory.ram_accesses )
        | None -> (a, l, r))
      (0, 0, 0) reports
  in
  let share x = float_of_int x /. float_of_int (max 1 accesses) in
  (share l1, share ram)
