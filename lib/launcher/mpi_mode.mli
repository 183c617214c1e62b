(** MPI (SPMD) execution mode: the kernel's pass space is block-
    decomposed over [opts.mpi_ranks] processes pinned one per core;
    each repetition is one bulk-synchronous phase ending in the
    configured communication (halo exchange of [opts.mpi_halo_bytes],
    or a barrier).  Completes the paper's fork mode into the "typical
    HPC profile" its Section 5.2.1 describes and the MPI support its
    Section 7 plans. *)

open Mt_creator

val run : Options.t -> Mt_isa.Insn.program -> Abi.t -> (Report.t, string) result
(** Measure the kernel under SPMD execution through
    {!Protocol.measure_totals}: the warm-up heats rank 0, whose
    simulation stands for every rank, and one experiment is one job of
    [opts.repetitions] phases.  The per-unit divisor covers the whole
    pass space (all ranks), so values compare directly against the
    sequential and OpenMP modes.  With [opts.profile] the report's
    profile describes rank 0's measured calls, warm-up excluded. *)
