(** MicroLauncher's front door: load a kernel from any supported
    source, dispatch on the execution mode the options select, and
    return (or batch) measurement reports. *)

open Mt_creator

val launch : Options.t -> Source.t -> (Report.t, string) result
(** Load the kernel and run it in the mode the options select: MPI
    when [mpi_ranks > 0], OpenMP when [openmp_threads > 0], fork
    aggregate when [cores > 1], sequential otherwise
    ({!Options.validate} rejects more than one).  Writes the CSV when
    [opts.csv_path] is set.  For the per-core reports of a fork run,
    use {!Fork_mode.run}. *)

val run_standalone :
  Options.t -> Mt_isa.Insn.program -> (Report.t, string) result
(** Stand-alone program mode (Section 4.1): time a whole program that
    has no launcher ABI — no arrays, no per-iteration normalisation,
    value is per call.  Every launch mode applies as in {!launch}
    (with [opts.cores > 1] the program forks onto that many cores, the
    mode's "multi-core aspect"); a sequential run is labelled
    ["standalone"]. *)

val run_variants :
  Options.t -> Variant.t list -> (Variant.t * (Report.t, string) result) list
(** The MicroCreator→MicroLauncher link: measure every generated
    variant under the same options. *)

val best_variant :
  Options.t -> Variant.t list -> ((Variant.t * Report.t) option, string) result
(** Measure all variants and return the fastest (lowest value); [None]
    when every variant failed and [opts.keep_failures] is set,
    [Error] on the first failure otherwise. *)
