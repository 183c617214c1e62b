(** A model of the OpenMP runtime behaviour MicroLauncher exercises in
    Section 5.2.3: a fork-join [parallel for] with static scheduling,
    per-thread core pinning, and a fixed region overhead.

    The paper's observation (Table 2) is that the OpenMP version's time
    is flat across unroll factors because the threads saturate memory
    bandwidth, while the sequential version keeps improving; the model
    reproduces exactly that: per-thread work runs on the machine model
    with a DRAM share for [threads] sharers, plus fork/join overhead. *)

type schedule =
  | Static  (** Contiguous equal chunks, one per thread. *)
  | Static_chunk of int  (** Round-robin chunks of the given size. *)
  | Dynamic of int
      (** First-come-first-served chunks of the given size; chunk
          dispatch costs a small bookkeeping overhead per chunk. *)
  | Guided of int
      (** Decreasing chunk sizes, [remaining/threads] floored at the
          given minimum. *)

type runtime = {
  threads : int;
  schedule : schedule;
  fork_overhead_ns : float;
      (** Cost of entering a parallel region (thread wake-up). *)
  join_overhead_ns : float;  (** Barrier at region end. *)
  per_thread_overhead_ns : float;
      (** Additional wake/barrier cost per extra thread. *)
}

val default_runtime : threads:int -> runtime
(** libgomp-flavoured defaults: 1.5 µs fork, 1 µs join, 150 ns per
    extra thread, static schedule. *)

val region_overhead_cycles : Mt_machine.Config.t -> runtime -> float
(** Total fork+join overhead of one parallel region, in core cycles. *)

(** How a [parallel for]'s iteration space lands on threads. *)
type chunk = { thread : int; start_iteration : int; iterations : int }

val chunks_of : runtime -> total:int -> chunk list
(** The schedule's chunking: every iteration is covered exactly once;
    threads with no work get no chunk.  For {!Dynamic} and {!Guided}
    the [thread] fields are provisional (round-robin) — the real
    assignment happens greedily in {!parallel_region} as threads free
    up. *)

val dispatch_overhead_ns : float
(** Bookkeeping cost per dynamically dispatched chunk. *)

val parallel_region :
  Mt_machine.Config.t ->
  runtime ->
  (chunk * 'a) list ->
  run_chunk:(chunk -> 'a -> sharers:int -> (float, 'e) result) ->
  (float, 'e) result
(** [parallel_region cfg rt work ~run_chunk] models one parallel
    region: [run_chunk] returns the core cycles one thread needs for
    its chunk when [sharers] threads stream concurrently; the region
    costs the slowest thread plus fork/join overhead.  Each chunk
    carries its own work item (the caller's per-chunk state, e.g. a
    prepared kernel), so the item reaches [run_chunk] with its chunk
    and no lookup can miss.
    The chunk passed to [run_chunk] carries the thread it runs on,
    which for dynamic schedules may differ from the provisional one.
    The first [Error] from [run_chunk] ends the region and is
    returned. *)

val pin_map : Mt_machine.Config.t -> runtime -> int array
(** Thread-to-core pinning: thread [i] runs on core [i] (compact
    pinning, filling socket 0 first), as MicroLauncher pins it. *)
