(** OpenMP execution mode (Section 5.2.3): the kernel's iteration space
    is split across [opts.openmp_threads] threads with libgomp-style
    static scheduling; each repetition is one parallel region with its
    fork/join overhead; threads contend for DRAM bandwidth. *)

open Mt_creator

val run : Options.t -> Mt_isa.Insn.program -> Abi.t -> (Report.t, string) result
(** Measure the kernel under OpenMP through {!Protocol.measure_totals}:
    the warm-up heats every thread's chunk, and one experiment is
    [opts.repetitions] parallel regions.  The per-unit divisor covers
    the whole iteration space (all threads together), so values compare
    directly against the sequential mode's.  With [opts.profile] the
    report's profile describes thread 0's chunk (the first chunk of the
    schedule) over the measured regions, warm-up excluded. *)
