(* Tests for the MPI runtime model and the launcher's SPMD mode. *)

open Mt_machine
open Mt_creator
open Mt_launcher

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let checkf = Alcotest.(check (float 1e-6))

let x5650 = Config.nehalem_x5650_2s

let comm ranks = Mt_mpi.create x5650 ~ranks

let test_create_validates () =
  check_bool "zero ranks" true
    (try ignore (Mt_mpi.create x5650 ~ranks:0); false
     with Invalid_argument _ -> true);
  check_bool "too many ranks" true
    (try ignore (Mt_mpi.create x5650 ~ranks:13); false
     with Invalid_argument _ -> true)

let test_send_cost_alpha_beta () =
  let c = Mt_mpi.create ~alpha_ns:100. ~beta_ns_per_byte:1. x5650 ~ranks:2 in
  (* 100 ns + 50 bytes * 1 ns = 150 ns at 2.67 GHz. *)
  checkf "alpha-beta" (150. *. 2.67) (Mt_mpi.send_cost c ~bytes:50)

let test_barrier_logarithmic () =
  let b n = Mt_mpi.barrier_cost (comm n) in
  checkf "single rank is free" 0. (b 1);
  check_bool "2 ranks: one round" true (b 2 > 0.);
  checkf "4 ranks = 2 rounds" (2. *. b 2) (b 4);
  checkf "8 ranks = 3 rounds" (3. *. b 2) (b 8);
  (* Non-power-of-two rounds up. *)
  checkf "5 ranks = 3 rounds" (b 8) (b 5)

let test_collective_relations () =
  let c = comm 8 in
  checkf "allreduce = reduce + bcast"
    (Mt_mpi.reduce_cost c ~bytes:1024 +. Mt_mpi.bcast_cost c ~bytes:1024)
    (Mt_mpi.allreduce_cost c ~bytes:1024);
  check_bool "alltoall grows with ranks" true
    (Mt_mpi.alltoall_cost (comm 8) ~bytes:64 > Mt_mpi.alltoall_cost (comm 4) ~bytes:64)

let test_run_spmd_bulk_synchronous () =
  let c = comm 4 in
  (* Rank 2 is twice as slow; each phase waits for it. *)
  let compute ~rank ~phase:_ ~sharers:_ = if rank = 2 then 2000. else 1000. in
  let t =
    Mt_mpi.run_spmd c ~phases:3 ~compute ~communication:(fun ~phase:_ -> Mt_mpi.No_comm)
  in
  checkf "3 phases x slowest rank" 6000. t

let test_run_spmd_adds_communication () =
  let c = comm 4 in
  let compute ~rank:_ ~phase:_ ~sharers:_ = 1000. in
  let plain =
    Mt_mpi.run_spmd c ~phases:2 ~compute ~communication:(fun ~phase:_ -> Mt_mpi.No_comm)
  in
  let with_halo =
    Mt_mpi.run_spmd c ~phases:2 ~compute
      ~communication:(fun ~phase:_ -> Mt_mpi.Halo_exchange 4096)
  in
  checkf "halo cost per phase" (2. *. Mt_mpi.phase_comm_cost c (Mt_mpi.Halo_exchange 4096))
    (with_halo -. plain)

let test_efficiency_bounds () =
  let c = comm 4 in
  (* Make the phases long enough that the barrier (~3.2k cycles) is
     marginal. *)
  let compute ~rank:_ ~phase:_ ~sharers:_ = 200_000. in
  let e =
    Mt_mpi.efficiency c ~phases:2 ~compute
      ~communication:(fun ~phase:_ -> Mt_mpi.Barrier)
  in
  check_bool "0 < efficiency <= 1" true (e > 0. && e <= 1.);
  (* Perfectly balanced compute, tiny barrier: high efficiency. *)
  check_bool "near 1 for balanced work" true (e > 0.9)

let test_efficiency_penalises_imbalance () =
  let c = comm 4 in
  let balanced ~rank:_ ~phase:_ ~sharers:_ = 10000. in
  let skewed ~rank ~phase:_ ~sharers:_ = if rank = 0 then 40000. else 10000. in
  let e_b =
    Mt_mpi.efficiency c ~phases:1 ~compute:balanced
      ~communication:(fun ~phase:_ -> Mt_mpi.No_comm)
  in
  let e_s =
    Mt_mpi.efficiency c ~phases:1 ~compute:skewed
      ~communication:(fun ~phase:_ -> Mt_mpi.No_comm)
  in
  check_bool "imbalance hurts" true (e_s < e_b *. 0.6)

(* ------------------------------------------------------------------ *)
(* Launcher MPI mode                                                   *)
(* ------------------------------------------------------------------ *)

let variant =
  lazy
    (match
       Mt_creator.Creator.generate
         (Mt_kernels.Streams.movss_unrolled_spec ~unroll:4 ())
     with
    | [ v ] -> v
    | _ -> Alcotest.fail "variant")

let mpi_opts ranks =
  {
    (Options.default x5650) with
    Options.array_bytes = 64 * 1024;
    repetitions = 2;
    experiments = 2;
    mpi_ranks = ranks;
  }

let test_launch_dispatches_mpi () =
  match
    Launcher.launch (mpi_opts 4) (Source.From_variant (Lazy.force variant))
  with
  | Ok r ->
    Alcotest.(check string) "mode" "mpi:4" r.Report.mode;
    check_bool "positive" true (r.Report.value > 0.)
  | Error msg -> Alcotest.fail msg

let test_mpi_scales_cached_work () =
  (* Cache-resident work decomposes: per-pass cost drops with ranks. *)
  let value ranks =
    match Launcher.launch (mpi_opts ranks) (Source.From_variant (Lazy.force variant)) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  check_bool "4 ranks beat 1" true (value 4 < value 1 /. 2.)

let test_mpi_halo_costs_show () =
  let base = mpi_opts 4 in
  let value opts =
    match Launcher.launch opts (Source.From_variant (Lazy.force variant)) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  let without = value base in
  let with_halo = value { base with Options.mpi_halo_bytes = Some (1 lsl 20) } in
  check_bool "big halos cost" true (with_halo > without *. 1.05)

let test_mpi_option_validated () =
  check_bool "too many ranks rejected" true
    (Result.is_error (Options.validate { (mpi_opts 4) with Options.mpi_ranks = 99 }))

let test_job_cycles_positive () =
  let v = Lazy.force variant in
  match
    Mpi_mode.job_cycles (mpi_opts 4) (Variant.concrete_body v)
      (Option.get v.Variant.abi)
  with
  | Ok c -> check_bool "positive" true (c > 0.)
  | Error msg -> Alcotest.fail msg

let test_failing_simulation_is_error () =
  (* Too little fuel for the warm-up call: the failure must surface
     from every entry point, not be ignored. *)
  let v = Lazy.force variant in
  let program = Variant.concrete_body v in
  let abi = Option.get v.Variant.abi in
  let starved = { (mpi_opts 4) with Options.max_instructions = 10 } in
  check_bool "run" true (Result.is_error (Mpi_mode.run starved program abi));
  check_bool "job cycles" true
    (Result.is_error (Mpi_mode.job_cycles starved program abi))

let test_options_count () = check_int "the option surface keeps growing" 40 Options.count

let tests =
  [
    Alcotest.test_case "create validates" `Quick test_create_validates;
    Alcotest.test_case "send cost alpha-beta" `Quick test_send_cost_alpha_beta;
    Alcotest.test_case "barrier logarithmic" `Quick test_barrier_logarithmic;
    Alcotest.test_case "collective relations" `Quick test_collective_relations;
    Alcotest.test_case "run_spmd bulk-synchronous" `Quick test_run_spmd_bulk_synchronous;
    Alcotest.test_case "run_spmd adds communication" `Quick test_run_spmd_adds_communication;
    Alcotest.test_case "efficiency bounds" `Quick test_efficiency_bounds;
    Alcotest.test_case "efficiency penalises imbalance" `Quick test_efficiency_penalises_imbalance;
    Alcotest.test_case "launch dispatches mpi" `Quick test_launch_dispatches_mpi;
    Alcotest.test_case "mpi scales cached work" `Quick test_mpi_scales_cached_work;
    Alcotest.test_case "mpi halo costs show" `Quick test_mpi_halo_costs_show;
    Alcotest.test_case "mpi option validated" `Quick test_mpi_option_validated;
    Alcotest.test_case "job cycles positive" `Quick test_job_cycles_positive;
    Alcotest.test_case "failing simulation is an error" `Quick
      test_failing_simulation_is_error;
    Alcotest.test_case "options count" `Quick test_options_count;
  ]
