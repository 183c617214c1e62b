(** MicroLauncher's behaviour knobs — the paper's "more than thirty
    options" (Section 4.2), as one record with sensible defaults. *)

(** What the reported number divides the measured time by. *)
type per_unit =
  | Per_pass  (** Loop passes, as counted by the kernel's [%eax]. *)
  | Per_instruction  (** Loads + stores (Figures 11, 12). *)
  | Per_element  (** Payload iterations: passes × unroll (Figures 17, 18). *)
  | Per_call  (** Whole kernel invocations. *)

(** Timing source: the default [rdtsc] reference cycles, or a custom
    wall-clock evaluation library (Section 4.2). *)
type eval_method = Rdtsc | Wallclock_ns

(** OpenMP loop schedule selection. *)
type omp_schedule = Omp_static | Omp_dynamic | Omp_guided

type t = {
  (* Machine & environment. *)
  machine : Mt_machine.Config.t;  (* 1. target machine description *)
  frequency_ghz : float option;  (* 2. core-clock override (Fig. 13) *)
  pin_core : int option;  (* 3. which core the kernel is pinned on *)
  pinned : bool;  (* 4. pinning enabled at all *)
  interrupts_masked : bool;  (* 5. disable interruptions (Section 4.7) *)
  noise_seed : int;  (* 6. environment PRNG seed *)
  (* Kernel interface. *)
  function_name : string option;  (* 7. entry point inside object containers *)
  nbvectors : int option;  (* 8. number of arrays (--nbvectors) *)
  array_bytes : int;  (* 9. size of each array *)
  element_bytes : int;  (* 10. element width for Per_element *)
  alignments : int list;  (* 11. per-array alignment offsets *)
  alignment_modulus : int;  (* 12. boundary the offsets apply to *)
  trip_passes : int option;  (* 13. loop passes per call (else one traversal) *)
  (* Protocol. *)
  repetitions : int;  (* 14. inner loop: kernel calls per experiment *)
  experiments : int;  (* 15. outer loop: measured experiments *)
  warmup : bool;  (* 16. cache-heating call before measuring *)
  subtract_overhead : bool;  (* 17. remove call overhead from results *)
  call_overhead_cycles : float;  (* 18. cost charged per function call *)
  max_instructions : int;  (* 19. simulation fuel per call *)
  (* Parallel modes. *)
  cores : int;  (* 20. fork mode process count *)
  openmp_threads : int;  (* 21. OpenMP thread count (0 = off) *)
  openmp_chunk : int option;  (* 22. chunk size (static/dynamic/guided) *)
  openmp_schedule : omp_schedule;  (* 22b. loop schedule *)
  local_alloc : bool;
      (* 23. forked processes allocate locally after pinning (first
         touch); when false the parent's node serves all the traffic *)
  ram_sharers : int option;  (* 24. override DRAM-sharing degree *)
  mpi_ranks : int;  (* 24b. SPMD process count (0 = off) *)
  mpi_halo_bytes : int option;  (* 24c. per-phase halo exchange size *)
  (* Output. *)
  eval_method : eval_method;  (* 25. rdtsc vs wall-clock library *)
  per : per_unit;  (* 26. divisor for the reported number *)
  csv_path : string option;  (* 27. write a CSV next to the run *)
  emit_full_times : bool;  (* 28. also report raw per-experiment times *)
  verbose : bool;  (* 29. chatty progress on stderr *)
  keep_failures : bool;  (* 30. report failed variants instead of raising *)
  drop_first_experiment : bool;  (* 31. discard experiment 0 (extra warm) *)
  (* Measurement quality. *)
  adaptive_experiments : bool;
      (* 32. stop running experiments once the series is stable enough
         (RCIW under [rciw_target]) instead of always running
         [experiments]; [experiments] becomes the minimum *)
  rciw_target : float;  (* 32b. adaptive stop target (relative CI width) *)
  max_experiments : int;  (* 32c. adaptive budget ceiling *)
  quality_seed : int;
      (* 33. seed for the quality bootstrap RNG — explicit so snapshots
         and mt_report diffs reproduce bit-for-bit *)
  quality : Mt_quality.thresholds;  (* 34. verdict classification bands *)
  profile : bool;
      (* 35. record per-instruction bottleneck attribution during the
         measured calls and attach the cycle-accounting breakdown to
         the report; never changes the measured numbers *)
}

val default : Mt_machine.Config.t -> t
(** Defaults: 64 KiB arrays, 16-byte-aligned, 4 repetitions,
    10 experiments, warm-up and overhead subtraction on, stable
    environment, sequential mode, rdtsc, per-pass reporting. *)

val count : int
(** Number of user-settable options (for the Section 4.2 claim test). *)

val effective_machine : t -> Mt_machine.Config.t
(** The machine with the frequency override applied. *)

val noise_env : t -> Mt_machine.Noise.env
(** The environment implied by the stability options. *)

val alignment_for : t -> int -> int
(** [alignment_for t i] is the byte offset for array [i] (cycling
    through [alignments]; 0 when the list is empty). *)

val validate : t -> (unit, string) result
(** Reject options no launch can honour, with a message naming the
    offending flags: out-of-range counts and sizes, more than one
    launch mode ([cores > 1], [openmp_threads > 0], [mpi_ranks > 0]),
    an OpenMP schedule or chunk without OpenMP, a halo size without
    MPI, a chunk below 1 and a negative halo. *)

val summary : t -> (string * string) list
(** Every measurement-shaping field rendered as a [(name, value)] pair,
    for run-provenance snapshots.  Output-routing fields ([csv_path],
    [verbose]) are omitted — two runs differing only there measured the
    same thing. *)
