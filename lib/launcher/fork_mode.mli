(** Fork-based multi-process execution (Sections 4.6, 5.2.1): the same
    sequential kernel runs on [opts.cores] cores at once, each process
    pinned to its own core with its own locally-allocated arrays, all
    contending for DRAM bandwidth.

    The processes are symmetric — identical kernel, identical array
    layout, a fair share of interleaved controller bandwidth — so one
    simulation provides every process's raw timing and each process
    applies its own environmental noise. *)

open Mt_creator

type outcome = {
  aggregate : Report.t;
      (** Per-experiment mean across processes — the Figure 14 series.
          Its memory counters and profile are the per-core reports'
          (one simulation stands behind them all). *)
  per_core : Report.t list;  (** One report per forked process. *)
}

val run : Options.t -> Mt_isa.Insn.program -> Abi.t -> (outcome, string) result
(** Run the kernel on [opts.cores] cores.  Core pinning is compact
    (process [i] on core [i]). *)
