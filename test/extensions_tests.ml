(* Tests for the extension surface: non-temporal stores, prefetch
   hints, integer SSE, the energy model, model-feature ablation flags,
   the analysis module, extra workload builders, OpenMP dynamic/guided
   schedules and C-source kernel loading. *)

open Mt_isa
open Mt_machine
open Mt_creator
open Mt_launcher

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let x5650 = Config.nehalem_x5650_2s

let x7550 = Config.nehalem_x7550_4s

let rsi = Reg.gpr64 Reg.RSI

let rdi = Reg.gpr64 Reg.RDI

let i op ops = Insn.Insn (Insn.make op ops)

let loop body =
  [ Insn.Label "L" ] @ body
  @ [
      i Insn.ADD [ Operand.imm 1; Operand.reg (Reg.gpr32 Reg.RAX) ];
      i Insn.SUB [ Operand.imm 1; Operand.reg rdi ];
      i (Insn.Jcc Insn.GE) [ Operand.label "L" ];
      i Insn.RET [];
    ]

let run_ok ?init ?memory program =
  let memory = match memory with Some m -> m | None -> Memory.create x5650 in
  match Core.run_program ?init x5650 memory program with
  | Ok r -> r
  | Error e -> Alcotest.fail (Core.error_to_string e)

(* ------------------------------------------------------------------ *)
(* New ISA surface                                                     *)
(* ------------------------------------------------------------------ *)

let test_nt_store_semantics () =
  let nt = Insn.make Insn.MOVNTPS [ Operand.reg (Reg.xmm 0); Operand.mem ~base:rsi () ] in
  check_bool "is store" true (Semantics.is_store nt);
  check_bool "is non-temporal" true (Semantics.is_non_temporal nt);
  check_int "16 bytes" 16 (Semantics.data_bytes nt);
  check_int "requires 16 alignment" 16 (Semantics.required_alignment nt);
  check_bool "validates" true (Result.is_ok (Semantics.validate nt));
  (* Wrong direction rejected. *)
  let backwards =
    Insn.make Insn.MOVNTPS [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 0) ]
  in
  check_bool "load form rejected" true (Result.is_error (Semantics.validate backwards))

let test_prefetch_semantics () =
  let p = Insn.make Insn.PREFETCHT0 [ Operand.mem ~base:rsi ~disp:512 () ] in
  check_bool "is prefetch" true (Semantics.is_prefetch p);
  check_bool "uses the load port" true (Semantics.ports p = [ Semantics.Load ]);
  check_int "touches a line" 64 (Semantics.data_bytes p);
  check_bool "validates" true (Result.is_ok (Semantics.validate p));
  check_bool "register operand rejected" true
    (Result.is_error (Semantics.validate (Insn.make Insn.PREFETCHNTA [ Operand.reg rsi ])))

let test_integer_sse_semantics () =
  let p = Insn.make Insn.PADDD [ Operand.reg (Reg.xmm 1); Operand.reg (Reg.xmm 2) ] in
  check_bool "validates" true (Result.is_ok (Semantics.validate p));
  check_bool "alu port" true (Semantics.ports p = [ Semantics.Alu ]);
  check_bool "dest read (rmw)" true
    (List.exists (Reg.equal (Reg.xmm 2)) (Semantics.sources p))

let test_new_mnemonics_roundtrip () =
  List.iter
    (fun op ->
      check_bool (Insn.mnemonic op) true
        (Insn.opcode_of_mnemonic (Insn.mnemonic op) = Some op))
    Insn.[ MOVNTPS; MOVNTDQ; MOVDQA; MOVDQU; PREFETCHT0; PREFETCHT1; PREFETCHNTA;
           PADDD; PSUBD; PAND; POR; PXOR ]

let test_nt_store_bypasses_cache () =
  let m = Memory.create x5650 in
  let addr = 1 lsl 20 in
  let _ = Memory.access ~nt:true m ~now:0. ~addr ~bytes:16 ~write:true in
  check_int "counted" 1 (Memory.counters m).Memory.nt_stores;
  (* The line was not allocated: a later load misses to RAM. *)
  let _ = Memory.access m ~now:100. ~addr ~bytes:8 ~write:false in
  check_bool "line not cached" true (Memory.level_of_last_access m = Memory.Ram)

let test_nt_store_cheaper_than_regular_from_ram () =
  (* Streaming stores avoid the read-for-ownership: a cold store stream
     with movntps beats movaps on cycles per pass. *)
  let build op =
    let spec = Mt_kernels.Streams.store_stream_spec ~streaming:(op = `Nt) ~unroll:(8, 8) () in
    match Creator.generate spec with [ v ] -> v | _ -> Alcotest.fail "variant"
  in
  let value v =
    let opts =
      {
        (Options.default x5650) with
        Options.array_bytes = 1024 * 1024;
        per = Options.Per_pass;
        warmup = false;
        repetitions = 1;
        experiments = 1;
      }
    in
    match Launcher.launch opts (Source.From_variant v) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  let regular = value (build `Regular) in
  let streaming = value (build `Nt) in
  check_bool "movntps at least 1.5x cheaper" true (streaming *. 1.5 < regular)

let test_prefetch_never_faults_or_stalls () =
  (* Prefetching a wildly misaligned address is fine, and a prefetch of
     a cold line does not slow the loop down. *)
  let body =
    [ i Insn.PREFETCHT0 [ Operand.mem ~base:rsi ~disp:3 () ] ]
  in
  let r = run_ok ~init:[ (rdi, 99); (rsi, 1 lsl 21) ] (loop body) in
  check_int "completed all passes" 100 r.Core.rax

let test_prefetch_warms_cache () =
  let m = Memory.create x5650 in
  let addr = 1 lsl 22 in
  let program =
    [ i Insn.PREFETCHT0 [ Operand.mem ~base:rsi () ]; i Insn.RET [] ]
  in
  let _ = run_ok ~memory:m ~init:[ (rsi, addr) ] program in
  let _ = Memory.access m ~now:1000. ~addr ~bytes:8 ~write:false in
  check_bool "line now resident" true (Memory.level_of_last_access m = Memory.L1)

(* ------------------------------------------------------------------ *)
(* Feature flags                                                       *)
(* ------------------------------------------------------------------ *)

let test_tlb_flag () =
  let off = Config.with_features x5650 { Config.all_features with Config.tlb = false } in
  let m = Memory.create off in
  for p = 0 to 999 do
    ignore (Memory.access m ~now:0. ~addr:(p * 4096) ~bytes:4 ~write:false)
  done;
  check_int "no walks with tlb off" 0 (Memory.counters m).Memory.page_walks

let test_prefetcher_flag () =
  let off =
    Config.with_features x5650 { Config.all_features with Config.prefetcher = false }
  in
  let m = Memory.create off in
  for l = 0 to 63 do
    ignore (Memory.access m ~now:(float_of_int (l * 30)) ~addr:(l * 64) ~bytes:8 ~write:false)
  done;
  check_int "no prefetched fills" 0 (Memory.counters m).Memory.prefetched_fills

let test_alias_flag () =
  let off =
    Config.with_features x7550
      { Config.all_features with Config.alias_interference = false }
  in
  let m = Memory.create ~ram_sharers:8 off in
  (* Two colliding streams. *)
  for k = 0 to 63 do
    ignore (Memory.access m ~now:0. ~addr:((1 lsl 20) + (4 * k)) ~bytes:4 ~write:false);
    ignore (Memory.access m ~now:0. ~addr:((1 lsl 21) + (4 * k)) ~bytes:4 ~write:false)
  done;
  check_int "no alias stalls" 0 (Memory.counters m).Memory.alias_stalls

(* ------------------------------------------------------------------ *)
(* Energy                                                              *)
(* ------------------------------------------------------------------ *)

let outcome_for ?(freq = x5650.Config.core_ghz) unroll =
  let cfg = Config.with_core_ghz x5650 freq in
  let body =
    List.init unroll (fun k ->
        i Insn.MOVSS [ Operand.mem ~base:rsi ~disp:(4 * k) (); Operand.reg (Reg.xmm (k mod 8)) ])
  in
  let memory = Memory.create cfg in
  let init = [ (rdi, 499); (rsi, 1 lsl 20) ] in
  match Core.run_program ~init cfg memory (loop body) with
  | Ok r -> (cfg, r)
  | Error e -> Alcotest.fail (Core.error_to_string e)

let test_energy_positive_components () =
  let cfg, o = outcome_for 4 in
  let b = Energy.of_outcome cfg o in
  check_bool "core dynamic > 0" true (b.Energy.core_dynamic_j > 0.);
  check_bool "static > 0" true (b.Energy.static_j > 0.);
  check_bool "total is the sum" true
    (Float.abs (Energy.total b -. (b.Energy.core_dynamic_j +. b.Energy.memory_dynamic_j +. b.Energy.static_j)) < 1e-18)

let test_energy_scales_with_work () =
  let cfg1, o1 = outcome_for 1 in
  let cfg8, o8 = outcome_for 8 in
  (* 8x the loads per pass, same pass count: more energy. *)
  check_bool "more work, more joules" true
    (Energy.joules cfg8 o8 > Energy.joules cfg1 o1)

let test_energy_static_grows_at_low_clock () =
  let cfg_slow, o_slow = outcome_for ~freq:1.335 4 in
  let cfg_fast, o_fast = outcome_for ~freq:2.67 4 in
  let s b = b.Energy.static_j in
  check_bool "slower clock leaks longer" true
    (s (Energy.of_outcome cfg_slow o_slow) > s (Energy.of_outcome cfg_fast o_fast));
  check_bool "dynamic identical" true
    (Float.abs
       ((Energy.of_outcome cfg_slow o_slow).Energy.core_dynamic_j
       -. (Energy.of_outcome cfg_fast o_fast).Energy.core_dynamic_j)
    < 1e-12)

let test_power_sane () =
  let cfg, o = outcome_for 4 in
  let w = Energy.average_power_w cfg o in
  (* A single busy core of this era: somewhere between its static floor
     and a few tens of watts. *)
  check_bool "above static floor" true (w > cfg.Config.energy.Config.core_static_w);
  check_bool "below 100 W" true (w < 100.)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let test_classify_load_port_bound () =
  let cfg, o = outcome_for 8 in
  check_bool "load-port bound stream" true
    (Microtools.Analysis.classify cfg o = Microtools.Analysis.Load_port)

let test_classify_dependency_chain () =
  let body = [ i Insn.ADDSD [ Operand.reg (Reg.xmm 0); Operand.reg (Reg.xmm 1) ] ] in
  let memory = Memory.create x5650 in
  let r =
    match Core.run_program ~init:[ (rdi, 499) ] x5650 memory (loop body) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Core.error_to_string e)
  in
  check_bool "chain bound" true
    (Microtools.Analysis.classify x5650 r = Microtools.Analysis.Dependency_chain)

let test_utilizations_bounded () =
  let cfg, o = outcome_for 4 in
  List.iter
    (fun (_, u) -> check_bool "utilization sane" true (u >= 0. && u < 2.))
    (Microtools.Analysis.utilizations cfg o)

let test_find_knee () =
  let series = [ (100., 5.); (200., 5.2); (300., 5.1); (500., 5.3); (600., 25.); (700., 31.) ] in
  match Microtools.Analysis.find_knee series with
  | None -> Alcotest.fail "no knee found"
  | Some k ->
    Alcotest.(check (float 1e-9)) "knee at 500" 500. k.Microtools.Analysis.at;
    check_bool "big ratio" true (k.Microtools.Analysis.ratio > 4.)

let test_find_knee_flat () =
  check_bool "flat series has no knee" true
    (Microtools.Analysis.find_knee [ (1., 2.); (2., 2.1); (3., 2.05) ] = None)

let test_recommend_unroll () =
  let points = [ (1, 2.0); (2, 1.2); (3, 1.01); (4, 1.0); (5, 1.0); (8, 0.999) ] in
  check_bool "smallest within tolerance" true
    (Microtools.Analysis.recommend_unroll ~tolerance:0.02 points = Some 3);
  check_bool "empty" true (Microtools.Analysis.recommend_unroll [] = None)

let test_describe_mentions_bottleneck () =
  let cfg, o = outcome_for 8 in
  let text = Microtools.Analysis.describe cfg o in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_bool "names the load port" true (contains "load port")

(* ------------------------------------------------------------------ *)
(* New builders                                                        *)
(* ------------------------------------------------------------------ *)

let test_strided_spec_forks_per_stride () =
  let variants = Creator.generate (Mt_kernels.Streams.strided_spec ()) in
  check_int "five strides" 5 (List.length variants);
  (* Each variant's pointer advances by its chosen stride. *)
  let steps =
    List.map
      (fun v ->
        match (Option.get v.Variant.abi).Abi.pointers with
        | [ (_, step) ] -> step
        | _ -> Alcotest.fail "one pointer expected")
      variants
    |> List.sort compare
  in
  check_bool "steps are the strides" true (steps = [ 4; 16; 64; 256; 1024 ])

let test_strided_larger_stride_slower_in_ram () =
  let variants = Creator.generate (Mt_kernels.Streams.strided_spec ()) in
  let value stride =
    let v =
      List.find
        (fun v ->
          match (Option.get v.Variant.abi).Abi.pointers with
          | [ (_, s) ] -> s = stride
          | _ -> false)
        variants
    in
    let opts =
      {
        (Options.default x5650) with
        Options.array_bytes = 2 * 1024 * 1024;
        per = Options.Per_pass;
        warmup = false;
        repetitions = 1;
        experiments = 1;
      }
    in
    match Launcher.launch opts (Source.From_variant v) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  (* Stride 4 touches a new line every 16 passes; stride 1024 misses
     every pass and defeats the prefetcher. *)
  check_bool "big stride much slower" true (value 1024 > 3. *. value 4)

let test_stencil_spec () =
  let variants = Creator.generate (Mt_kernels.Streams.stencil_spec ()) in
  check_int "four unrolls" 4 (List.length variants);
  let v = List.hd variants in
  let abi = Option.get v.Variant.abi in
  check_int "two arrays" 2 (List.length abi.Abi.pointers);
  check_int "three loads" 3 abi.Abi.loads_per_pass;
  check_int "one store" 1 abi.Abi.stores_per_pass;
  (* And it runs. *)
  let opts = { (Options.default x5650) with Options.array_bytes = 32 * 1024; repetitions = 1; experiments = 2 } in
  check_bool "measures" true
    (Result.is_ok (Launcher.launch opts (Source.From_variant v)))

let test_prefetched_spec_runs () =
  let variants = Creator.generate (Mt_kernels.Streams.prefetched_spec ~unroll:(4, 4) ()) in
  check_int "one variant" 1 (List.length variants);
  let opts =
    { (Options.default x5650) with Options.array_bytes = 64 * 1024; repetitions = 1; experiments = 2 }
  in
  check_bool "measures" true
    (Result.is_ok (Launcher.launch opts (Source.From_variant (List.hd variants))))

(* ------------------------------------------------------------------ *)
(* OpenMP schedules                                                    *)
(* ------------------------------------------------------------------ *)

let test_dynamic_chunks_cover () =
  let rt = { (Mt_openmp.default_runtime ~threads:3) with Mt_openmp.schedule = Mt_openmp.Dynamic 4 } in
  let chunks = Mt_openmp.chunks_of rt ~total:10 in
  let sum = List.fold_left (fun acc c -> acc + c.Mt_openmp.iterations) 0 chunks in
  check_int "covers" 10 sum

let test_guided_chunks_decrease () =
  let rt = { (Mt_openmp.default_runtime ~threads:4) with Mt_openmp.schedule = Mt_openmp.Guided 2 } in
  let chunks = Mt_openmp.chunks_of rt ~total:100 in
  let sizes = List.map (fun c -> c.Mt_openmp.iterations) chunks in
  check_int "first chunk is remaining/threads" 25 (List.hd sizes);
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  check_bool "sizes non-increasing" true (non_increasing sizes);
  check_int "covers" 100 (List.fold_left ( + ) 0 sizes);
  check_bool "floored at minimum" true (List.for_all (fun s -> s >= 2 || s = List.nth sizes (List.length sizes - 1)) sizes)

let test_dynamic_balances_skewed_chunks () =
  (* One chunk is 10x the others: dynamic dispatch keeps the other
     threads busy, so the region beats a static round-robin placement. *)
  let cfg = Config.sandy_bridge_e31240 in
  let region schedule =
    let rt = { (Mt_openmp.default_runtime ~threads:2) with Mt_openmp.schedule } in
    Mt_openmp.parallel_region cfg rt
      (List.map
         (fun c -> (c, if c.Mt_openmp.start_iteration = 0 then 100_000. else 10_000.))
         (Mt_openmp.chunks_of rt ~total:8))
      ~run_chunk:(fun _ cycles ~sharers:_ -> Ok cycles)
    |> Result.get_ok
  in
  let dyn = region (Mt_openmp.Dynamic 1) in
  let stat = region (Mt_openmp.Static_chunk 1) in
  check_bool "dynamic no worse" true (dyn <= stat +. 1.)

let test_launcher_openmp_schedules () =
  let variant =
    match Creator.generate (Mt_kernels.Streams.movss_unrolled_spec ~unroll:2 ()) with
    | [ v ] -> v
    | _ -> Alcotest.fail "variant"
  in
  let value schedule =
    let opts =
      {
        (Options.default Config.sandy_bridge_e31240) with
        Options.array_bytes = 128 * 1024;
        openmp_threads = 4;
        openmp_schedule = schedule;
        openmp_chunk = Some 256;
        repetitions = 1;
        experiments = 2;
      }
    in
    match Launcher.launch opts (Source.From_variant variant) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  let s = value Options.Omp_static in
  let d = value Options.Omp_dynamic in
  let g = value Options.Omp_guided in
  check_bool "all positive" true (s > 0. && d > 0. && g > 0.);
  (* Dynamic pays per-chunk dispatch overhead on this uniform loop. *)
  check_bool "dynamic not cheaper than static here" true (d >= s *. 0.99)

(* ------------------------------------------------------------------ *)
(* C-source kernels                                                    *)
(* ------------------------------------------------------------------ *)

let c_variant =
  lazy
    (match
       Creator.generate
         (Mt_kernels.Streams.loadstore_spec ~unroll:(3, 3) ~swap_after:false ())
     with
    | [ v ] -> v
    | _ -> Alcotest.fail "variant")

let test_c_source_parses_back () =
  let v = Lazy.force c_variant in
  match Source.parse_c_source (Emit.c_source v) with
  | Error msg -> Alcotest.fail msg
  | Ok (program, abi) ->
    check_int "unroll from abi" 3 abi.Abi.unroll;
    (* Same payload instructions as the assembly output (minus ret). *)
    let payload p =
      List.filter (fun i -> Semantics.is_memory_move i) (Insn.insns p)
    in
    check_int "same loads" 3 (List.length (payload program));
    check_bool "counter" true (Reg.equal abi.Abi.counter (Reg.gpr64 Reg.RDI))

let test_c_file_measures_like_assembly () =
  let v = Lazy.force c_variant in
  let dir = Filename.get_temp_dir_name () in
  let c_path = Emit.write_c ~dir v in
  let s_path = Emit.write_assembly ~dir v in
  let opts =
    { (Options.default x5650) with Options.array_bytes = 16 * 1024; repetitions = 1; experiments = 2 }
  in
  let value path =
    match Launcher.launch opts (Source.From_file path) with
    | Ok r -> r.Report.value
    | Error msg -> Alcotest.fail msg
  in
  let vc = value c_path and vs = value s_path in
  Sys.remove c_path;
  Sys.remove s_path;
  Alcotest.(check (float 0.02)) "same measurement" vs vc

(* ------------------------------------------------------------------ *)
(* New experiments                                                     *)
(* ------------------------------------------------------------------ *)

let test_roofline_memory_bound_stream () =
  (* A cold movsd page-stride walk: almost no flops, lots of DRAM. *)
  let body =
    [ i Insn.MOVSD [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 0) ];
      i Insn.ADD [ Operand.imm 64; Operand.reg rsi ] ]
  in
  let r = run_ok ~init:[ (rdi, 999); (rsi, 1 lsl 24) ] (loop body) in
  let roof = Microtools.Analysis.roofline x5650 r in
  check_bool "memory bound" true (roof.Microtools.Analysis.bound = `Memory);
  check_bool "achieved below both roofs" true
    (roof.Microtools.Analysis.achieved_gflops
     <= roof.Microtools.Analysis.compute_roof_gflops +. 1e-9)

let test_roofline_compute_bound_chain () =
  let body =
    [ i Insn.MULSD [ Operand.reg (Reg.xmm 0); Operand.reg (Reg.xmm 1) ];
      i Insn.ADDSD [ Operand.reg (Reg.xmm 2); Operand.reg (Reg.xmm 3) ] ]
  in
  let r = run_ok ~init:[ (rdi, 999) ] (loop body) in
  let roof = Microtools.Analysis.roofline x5650 r in
  check_bool "compute bound (no DRAM traffic)" true
    (roof.Microtools.Analysis.bound = `Compute);
  check_bool "intensity infinite" true (roof.Microtools.Analysis.intensity = infinity);
  check_bool "summary prints" true
    (String.length (Microtools.Analysis.roofline_to_string roof) > 0)

let test_stream_kernels_compile_and_scale () =
  (* All four STREAM kernels compile and their cold-RAM cost orders by
     bytes moved: copy/scale < add/triad. *)
  let cycles kernel =
    let program, abi =
      match Mt_cc.Codegen.compile (Mt_kernels.Streams.stream_kernel_source kernel) with
      | Ok r -> r
      | Error m -> Alcotest.fail m
    in
    let opts =
      {
        (Options.default x5650) with
        Options.array_bytes = 1024 * 1024;
        warmup = false;
        repetitions = 1;
        experiments = 1;
      }
    in
    match Protocol.prepare opts program abi with
    | Error m -> Alcotest.fail m
    | Ok p -> (
      match Protocol.run_once p with
      | Ok o -> o.Core.cycles /. float_of_int o.Core.rax
      | Error m -> Alcotest.fail m)
  in
  let copy = cycles Mt_kernels.Streams.Copy in
  let triad = cycles Mt_kernels.Streams.Triad in
  check_bool "triad moves more, costs more" true (triad > copy *. 1.2);
  check_int "copy bytes" 16 (Mt_kernels.Streams.stream_kernel_bytes_per_pass Mt_kernels.Streams.Copy);
  check_int "triad bytes" 24 (Mt_kernels.Streams.stream_kernel_bytes_per_pass Mt_kernels.Streams.Triad)

let test_ablation_experiment () =
  let t = Microtools.Experiments.ablation ~quick:true () in
  check_int "four mechanisms" 4 (List.length t.Microtools.Exp_table.rows);
  (* The prefetcher row: off must be slower than on. *)
  let row = List.find (fun r -> List.hd r = "stream prefetcher") t.Microtools.Exp_table.rows in
  let v_on = float_of_string (List.nth row 2) in
  let v_off = float_of_string (List.nth row 3) in
  check_bool "prefetcher helps" true (v_off > v_on)

let test_energy_experiment () =
  let t = Microtools.Experiments.energy ~quick:true () in
  check_int "rows" 4 (List.length t.Microtools.Exp_table.rows);
  List.iter
    (fun row ->
      check_bool "positive energy" true (float_of_string (List.nth row 3) > 0.))
    t.Microtools.Exp_table.rows

let tests =
  [
    Alcotest.test_case "nt store semantics" `Quick test_nt_store_semantics;
    Alcotest.test_case "prefetch semantics" `Quick test_prefetch_semantics;
    Alcotest.test_case "integer sse semantics" `Quick test_integer_sse_semantics;
    Alcotest.test_case "new mnemonics round-trip" `Quick test_new_mnemonics_roundtrip;
    Alcotest.test_case "nt store bypasses cache" `Quick test_nt_store_bypasses_cache;
    Alcotest.test_case "nt store cheaper from RAM" `Quick test_nt_store_cheaper_than_regular_from_ram;
    Alcotest.test_case "prefetch never faults or stalls" `Quick test_prefetch_never_faults_or_stalls;
    Alcotest.test_case "prefetch warms cache" `Quick test_prefetch_warms_cache;
    Alcotest.test_case "tlb feature flag" `Quick test_tlb_flag;
    Alcotest.test_case "prefetcher feature flag" `Quick test_prefetcher_flag;
    Alcotest.test_case "alias feature flag" `Quick test_alias_flag;
    Alcotest.test_case "energy positive components" `Quick test_energy_positive_components;
    Alcotest.test_case "energy scales with work" `Quick test_energy_scales_with_work;
    Alcotest.test_case "static energy grows at low clock" `Quick test_energy_static_grows_at_low_clock;
    Alcotest.test_case "power sane" `Quick test_power_sane;
    Alcotest.test_case "classify load-port bound" `Quick test_classify_load_port_bound;
    Alcotest.test_case "classify dependency chain" `Quick test_classify_dependency_chain;
    Alcotest.test_case "utilizations bounded" `Quick test_utilizations_bounded;
    Alcotest.test_case "find knee" `Quick test_find_knee;
    Alcotest.test_case "find knee: flat" `Quick test_find_knee_flat;
    Alcotest.test_case "recommend unroll" `Quick test_recommend_unroll;
    Alcotest.test_case "describe mentions bottleneck" `Quick test_describe_mentions_bottleneck;
    Alcotest.test_case "strided spec forks per stride" `Quick test_strided_spec_forks_per_stride;
    Alcotest.test_case "larger stride slower in RAM" `Quick test_strided_larger_stride_slower_in_ram;
    Alcotest.test_case "stencil spec" `Quick test_stencil_spec;
    Alcotest.test_case "prefetched spec runs" `Quick test_prefetched_spec_runs;
    Alcotest.test_case "dynamic chunks cover" `Quick test_dynamic_chunks_cover;
    Alcotest.test_case "guided chunks decrease" `Quick test_guided_chunks_decrease;
    Alcotest.test_case "dynamic balances skewed chunks" `Quick test_dynamic_balances_skewed_chunks;
    Alcotest.test_case "launcher openmp schedules" `Quick test_launcher_openmp_schedules;
    Alcotest.test_case "c source parses back" `Quick test_c_source_parses_back;
    Alcotest.test_case "c file measures like assembly" `Quick test_c_file_measures_like_assembly;
    Alcotest.test_case "roofline: memory-bound stream" `Quick test_roofline_memory_bound_stream;
    Alcotest.test_case "roofline: compute-bound chain" `Quick test_roofline_compute_bound_chain;
    Alcotest.test_case "STREAM kernels compile and scale" `Quick test_stream_kernels_compile_and_scale;
    Alcotest.test_case "ablation experiment (quick)" `Slow test_ablation_experiment;
    Alcotest.test_case "energy experiment (quick)" `Slow test_energy_experiment;
  ]
