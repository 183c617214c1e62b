(* Equivalence and allocation-discipline tests for the block-replay
   fast path: [Core.run] must be observationally identical to the
   reference interpreter [Core.run_reference] — same cycles, same
   counters, bit for bit — and the non-memory steady state must not
   allocate. *)

open Mt_machine
open Mt_isa
open Mt_creator

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let cfg = Config.nehalem_x5650_2s

let rsi = Reg.gpr64 Reg.RSI

let rdi = Reg.gpr64 Reg.RDI

let eax = Reg.gpr32 Reg.RAX

let i op ops = Insn.Insn (Insn.make op ops)

let loop ?(step = 1) body =
  [ Insn.Label "L" ] @ body
  @ [
      i Insn.ADD [ Operand.imm 1; Operand.reg eax ];
      i Insn.SUB [ Operand.imm step; Operand.reg rdi ];
      i (Insn.Jcc Insn.GE) [ Operand.label "L" ];
      i Insn.RET [];
    ]

(* ------------------------------------------------------------------ *)
(* Outcome equality                                                    *)
(* ------------------------------------------------------------------ *)

let show_outcome (o : Core.outcome) =
  Printf.sprintf
    "cycles=%.17g insns=%d rax=%d br=%d misp=%d ld=%d st=%d pf=%d fp=%d \
     alu=%d mem=(acc=%d l1=%d l2=%d l3=%d ram=%d split=%d alias=%d pref=%d \
     tlb=%d walk=%d nt=%d)"
    o.Core.cycles o.Core.instructions o.Core.rax o.Core.branches
    o.Core.mispredicts o.Core.loads o.Core.stores o.Core.prefetches
    o.Core.fp_ops o.Core.alu_ops o.Core.mem.Memory.accesses
    o.Core.mem.Memory.l1_hits o.Core.mem.Memory.l2_hits
    o.Core.mem.Memory.l3_hits o.Core.mem.Memory.ram_accesses
    o.Core.mem.Memory.split_accesses o.Core.mem.Memory.alias_stalls
    o.Core.mem.Memory.prefetched_fills o.Core.mem.Memory.tlb_misses
    o.Core.mem.Memory.page_walks o.Core.mem.Memory.nt_stores

let show_result = function
  | Ok o -> "Ok " ^ show_outcome o
  | Error e -> "Error " ^ Core.error_to_string e

(* Run the same compiled program through both engines on identically
   fresh state and demand bit-identical results. *)
let check_equivalent ?(what = "engines agree") ?init ?max_instructions
    ?(machine = cfg) ?ram_sharers program =
  match Core.compile program with
  | Error e -> Alcotest.failf "%s: compile: %s" what (Core.error_to_string e)
  | Ok compiled ->
    let mem_fast = Memory.create ?ram_sharers machine in
    let mem_ref = Memory.create ?ram_sharers machine in
    let fast = Core.run ?init ?max_instructions machine mem_fast compiled in
    let reference =
      Core.run_reference ?init ?max_instructions machine mem_ref compiled
    in
    if fast <> reference then
      Alcotest.failf "%s:\n  fast: %s\n  ref:  %s" what (show_result fast)
        (show_result reference)

(* ------------------------------------------------------------------ *)
(* Directed equivalence cases                                          *)
(* ------------------------------------------------------------------ *)

let test_equiv_alu_loop () =
  let rbx = Reg.gpr64 Reg.RBX in
  let rcx = Reg.gpr64 Reg.RCX in
  check_equivalent ~what:"alu loop" ~init:[ (rdi, 199) ]
    (loop
       [
         i Insn.ADD [ Operand.imm 3; Operand.reg rbx ];
         i Insn.IMUL [ Operand.reg rbx; Operand.reg rcx ];
         i Insn.XOR [ Operand.reg rcx; Operand.reg rbx ];
       ])

let test_equiv_load_store_loop () =
  let xmm0 = Reg.xmm 0 in
  check_equivalent ~what:"load/store stream"
    ~init:[ (rdi, 499); (rsi, 1 lsl 22) ]
    (loop
       [
         i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
         i Insn.MOVSS [ Operand.reg xmm0; Operand.mem ~base:rsi ~disp:4096 () ];
         i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
       ])

let test_equiv_split_accesses () =
  let xmm0 = Reg.xmm 0 in
  (* 8-byte loads at line-60: every access straddles a cache line. *)
  check_equivalent ~what:"line splits" ~init:[ (rdi, 99); (rsi, (1 lsl 22) + 60) ]
    (loop
       [
         i Insn.MOVSD [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
         i Insn.ADD [ Operand.imm 64; Operand.reg rsi ];
       ])

let test_equiv_prefetch_and_nt () =
  let xmm0 = Reg.xmm 0 in
  check_equivalent ~what:"prefetch + nt store"
    ~init:[ (rdi, 299); (rsi, 1 lsl 23) ]
    (loop
       [
         i Insn.PREFETCHT0 [ Operand.mem ~base:rsi ~disp:256 () ];
         i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
         i Insn.MOVNTPS [ Operand.reg xmm0; Operand.mem ~base:rsi ~disp:(1 lsl 22) () ];
         i Insn.ADD [ Operand.imm 16; Operand.reg rsi ];
       ])

let test_equiv_alias_sharers () =
  let xmm0 = Reg.xmm 0 in
  (* With ram_sharers > 1 the alias-interference path (the slow branch
     the memo must not shortcut) is live. *)
  check_equivalent ~what:"alias interference" ~ram_sharers:8
    ~init:[ (rdi, 199); (rsi, 1 lsl 22) ]
    (loop
       [
         i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
         i Insn.MOVSS [ Operand.mem ~base:rsi ~disp:(1 lsl 20) (); Operand.reg (Reg.xmm 1) ];
         i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
       ])

let test_equiv_fuel_and_faults () =
  (* Fuel exhaustion must trip at the same instruction. *)
  let forever = [ Insn.Label "L"; i Insn.JMP [ Operand.label "L" ] ] in
  check_equivalent ~what:"fuel" ~max_instructions:777 forever;
  (* Alignment faults must agree on pc/addr. *)
  let misaligned =
    [
      i Insn.MOVAPS [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 0) ];
      i Insn.RET [];
    ]
  in
  check_equivalent ~what:"alignment fault" ~init:[ (rsi, 4100) ] misaligned

let test_equiv_empty_and_straightline () =
  check_equivalent ~what:"empty" [];
  check_equivalent ~what:"ret only" [ i Insn.RET [] ];
  check_equivalent ~what:"fall off the end"
    [ i Insn.ADD [ Operand.imm 1; Operand.reg eax ] ];
  check_equivalent ~what:"jump off the end"
    [ i Insn.JMP [ Operand.label "end" ]; Insn.Label "end" ]

(* ------------------------------------------------------------------ *)
(* Golden corpus: every description x every preset                     *)
(* ------------------------------------------------------------------ *)

(* dune runtest runs us in test/; dune exec runs from the root. *)
let corpus_dir =
  if Sys.file_exists "../descriptions" then "../descriptions" else "descriptions"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Sample [n] variants evenly across the space (first and last always
   included): full spaces run to hundreds of variants per kernel, and
   the engine behaviour varies with unroll/opcode/stride, not with the
   variant index. *)
let sample n xs =
  let len = List.length xs in
  if len <= n then xs
  else
    List.filteri
      (fun idx _ -> idx = len - 1 || idx mod (len / n) = 0)
      xs

let golden_init abi passes =
  let bases = List.init 8 (fun idx -> (idx + 1) * (1 lsl 21)) in
  (abi.Abi.counter, Abi.trip_count_for_passes abi passes)
  :: List.mapi
       (fun idx (r, _step) -> (r, List.nth bases (idx mod 8)))
       abi.Abi.pointers

(* Apply [f] to sampled variants of every description on every
   preset; returns how many (variant, preset) pairs it covered. *)
let iter_golden f =
  let kernels = Sys.readdir corpus_dir in
  Array.sort compare kernels;
  let kernels =
    Array.to_list kernels |> List.filter (fun f -> Filename.check_suffix f ".xml")
  in
  check_bool "full corpus present" true (List.length kernels >= 11);
  let checked = ref 0 in
  List.iter
    (fun file ->
      let text = read_file (Filename.concat corpus_dir file) in
      let spec =
        match Description.of_string text with
        | Ok spec -> spec
        | Error msg -> Alcotest.failf "%s: %s" file msg
      in
      let variants = sample 4 (Creator.generate spec) in
      List.iter
        (fun (name, machine) ->
          List.iter
            (fun v ->
              let abi =
                match v.Variant.abi with
                | Some abi -> abi
                | None -> Alcotest.failf "%s: variant without abi" file
              in
              f ~what:(Printf.sprintf "%s/%s/%s" file name (Variant.id v))
                ~machine ~init:(golden_init abi 24) (Variant.concrete_body v);
              incr checked)
            variants)
        Config.presets)
    kernels;
  !checked

let test_golden_corpus () =
  let checked =
    iter_golden (fun ~what ~machine ~init program ->
        check_equivalent ~what ~machine ~init program)
  in
  (* 11 kernels x 3 presets x sampled variants. *)
  check_bool "covered the corpus" true (checked >= 11 * 3 * 3)

(* ------------------------------------------------------------------ *)
(* QCheck: random short programs                                       *)
(* ------------------------------------------------------------------ *)

(* Random short loops over ALU, SSE and memory instructions, with a
   trip count; the kernels run with [rsi] as the array base. *)
let random_loop_gen =
  let open QCheck in
  let gpr = Gen.oneofl [ Reg.RBX; Reg.RCX; Reg.RDX; Reg.R8; Reg.R9 ] in
  let body_insn =
    Gen.(
      oneof
        [
          (* ALU reg/imm *)
          ( oneofl [ Insn.ADD; Insn.SUB; Insn.AND; Insn.OR; Insn.XOR; Insn.IMUL ]
          >>= fun op ->
            gpr >>= fun d ->
            oneof
              [
                (0 -- 64 >|= fun n -> Insn.make op [ Operand.imm n; Operand.reg (Reg.gpr64 d) ]);
                ( gpr >|= fun s ->
                  Insn.make op [ Operand.reg (Reg.gpr64 s); Operand.reg (Reg.gpr64 d) ] );
              ] );
          (* MOV / LEA *)
          ( gpr >>= fun d ->
            oneof
              [
                (0 -- 1000 >|= fun n -> Insn.make Insn.MOV [ Operand.imm n; Operand.reg (Reg.gpr64 d) ]);
                ( 0 -- 512 >|= fun disp ->
                  Insn.make Insn.LEA
                    [ Operand.mem ~base:rsi ~disp (); Operand.reg (Reg.gpr64 d) ] );
              ] );
          (* SSE arithmetic *)
          ( oneofl [ Insn.ADDSD; Insn.MULSS; Insn.ADDPS; Insn.MULPD; Insn.DIVSD ]
          >>= fun op ->
            0 -- 3 >>= fun a ->
            0 -- 3 >|= fun b ->
            Insn.make op [ Operand.reg (Reg.xmm a); Operand.reg (Reg.xmm b) ] );
          (* Loads and stores off the array base (unaligned-tolerant). *)
          ( oneofl [ 0; 4; 8; 60; 64; 4096 ] >>= fun disp ->
            0 -- 3 >>= fun x ->
            oneofl
              [
                Insn.make Insn.MOVSD
                  [ Operand.mem ~base:rsi ~disp (); Operand.reg (Reg.xmm x) ];
                Insn.make Insn.MOVUPS
                  [ Operand.mem ~base:rsi ~disp (); Operand.reg (Reg.xmm x) ];
                Insn.make Insn.MOVSS
                  [ Operand.reg (Reg.xmm x); Operand.mem ~base:rsi ~disp () ];
              ]
            >|= fun insn -> insn );
          (* Walk the base pointer. *)
          ( oneofl [ 4; 8; 16; 64; 4160 ] >|= fun step ->
            Insn.make Insn.ADD [ Operand.imm step; Operand.reg rsi ] );
        ])
  in
  Gen.(
    list_size (1 -- 8) body_insn >>= fun body ->
    1 -- 40 >|= fun trips -> (loop (List.map (fun x -> Insn.Insn x) body), trips))

let prop_random_programs =
  let open QCheck in
  Test.make ~count:80 ~name:"fastpath: random programs match the reference"
    (make random_loop_gen) (fun (program, trips) ->
      check_equivalent ~what:"random program"
        ~init:[ (rdi, trips); (rsi, 1 lsl 22) ]
        program;
      true)

(* ------------------------------------------------------------------ *)
(* Ring reuse: one memory pipeline across many calls                   *)
(* ------------------------------------------------------------------ *)

(* [Core.run] books on a ring file borrowed from {!Booker}'s pool and
   resets it in O(1) per call; [Core.run_reference] books on fresh
   rings.  Driving both through the same call sequence — each on its
   own pipeline, so caches warm identically — must give bit-identical
   outcomes at every step, including after calls that stop early and
   leave their bookings behind. *)

let compile_exn program =
  match Core.compile program with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %s" (Core.error_to_string e)

(* Books ALU, FP-divide (multi-cycle occupancy) and load-port cycles,
   then faults on a misaligned aligned-SSE load. *)
let faulting =
  lazy
    (compile_exn
       [
         i Insn.ADD [ Operand.imm 1; Operand.reg eax ];
         i Insn.DIVSD [ Operand.reg (Reg.xmm 1); Operand.reg (Reg.xmm 2) ];
         i Insn.MOVSD [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 3) ];
         i Insn.ADD [ Operand.imm 2; Operand.reg eax ];
         i Insn.MOVAPS [ Operand.mem ~base:rsi ~disp:4 (); Operand.reg (Reg.xmm 0) ];
         i Insn.RET [];
       ])

type call = {
  prog : Core.compiled;
  init : (Reg.t * int) list;
  fuel : int option;
  expect : [ `Ok | `Fuel | `Fault ];
}

let show_kind = function `Ok -> "Ok" | `Fuel -> "Fuel_exhausted" | `Fault -> "Alignment_fault"

let kind_of = function
  | Ok _ -> `Ok
  | Error (Core.Fuel_exhausted _) -> `Fuel
  | Error (Core.Alignment_fault _) -> `Fault
  | Error e -> Alcotest.failf "unexpected error %s" (Core.error_to_string e)

(* The kernel five times, with a call cut short by fuel (half its
   instructions) after the second and an alignment fault after the
   third. *)
let reuse_sequence machine prog init =
  let insns =
    match Core.run_reference ~init machine (Memory.create machine) prog with
    | Ok o -> o.Core.instructions
    | Error e -> Alcotest.failf "kernel: %s" (Core.error_to_string e)
  in
  let ok = { prog; init; fuel = None; expect = `Ok } in
  [
    ok;
    ok;
    { ok with fuel = Some (max 1 (insns / 2)); expect = `Fuel };
    ok;
    { prog = Lazy.force faulting; init = [ (rsi, 1 lsl 22) ]; fuel = None;
      expect = `Fault };
    ok;
    ok;
  ]

(* [before k] runs before the fast engine's call [k]. *)
let check_reuse ?(what = "reuse") ?(machine = cfg) ?(before = fun _ -> ())
    calls =
  let mem_fast = Memory.create machine in
  let mem_ref = Memory.create machine in
  List.iteri
    (fun k c ->
      before k;
      let run engine mem =
        engine ?init:(Some c.init) ?max_instructions:c.fuel ?trace:None
          ?attr:None machine mem c.prog
      in
      let fast = run Core.run mem_fast in
      let reference = run Core.run_reference mem_ref in
      if fast <> reference then
        Alcotest.failf "%s, call %d:\n  fast: %s\n  ref:  %s" what k
          (show_result fast) (show_result reference);
      if kind_of fast <> c.expect then
        Alcotest.failf "%s, call %d: expected %s, got %s" what k
          (show_kind c.expect) (show_result fast))
    calls

let test_reuse_directed () =
  let rbx = Reg.gpr64 Reg.RBX in
  (* Long enough that one call's bookings wrap the 8192-cycle ring. *)
  let long_alu =
    compile_exn
      (loop
         [
           i Insn.IMUL [ Operand.imm 3; Operand.reg rbx ];
           i Insn.DIVSD [ Operand.reg (Reg.xmm 1); Operand.reg (Reg.xmm 2) ];
         ])
  in
  let stream =
    compile_exn
      (loop ~step:1
         [
           i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 0) ];
           i Insn.MOVSS [ Operand.reg (Reg.xmm 0); Operand.mem ~base:rsi ~disp:4096 () ];
           i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
         ])
  in
  check_reuse ~what:"long alu loop"
    (reuse_sequence cfg long_alu [ (rdi, 2000) ]);
  check_reuse ~what:"load/store stream"
    (reuse_sequence cfg stream [ (rdi, 500); (rsi, 1 lsl 22) ]);
  (* Alternating programs on one pipeline: each call's keys must be
     invisible to the next, whichever program wrote them. *)
  check_reuse ~what:"alternating programs"
    (List.concat
       [
         reuse_sequence cfg long_alu [ (rdi, 300) ];
         reuse_sequence cfg stream [ (rdi, 100); (rsi, 1 lsl 22) ];
       ])

let test_reuse_refill () =
  (* A ring whose keys approach max_int is refilled in full instead of
     rebased; the refill must be as exact as the O(1) reset.  Calls
     take their file from the pool's top and release it there, so
     poking every pooled file reaches the file the next call takes.
     Pushing [hi] up before the first call makes that call book from
     key base 0, as a fresh ring does; pushing it up again makes the
     second refill a ring that still holds the first call's keys,
     which a rebase to 0 without the refill would read back. *)
  let rbx = Reg.gpr64 Reg.RBX in
  let prog =
    compile_exn
      (loop [ i Insn.ADD [ Operand.imm 1; Operand.reg rbx ] ])
  in
  check_reuse ~what:"refill near max_int"
    ~before:(fun k ->
      if k = 0 && Booker.pooled () = [] then
        Booker.release (Booker.acquire cfg);
      if k <= 1 then
        List.iter
          (Array.iter (fun (r : Booker.t) -> r.Booker.hi <- max_int - 1))
          (Booker.pooled ()))
    (reuse_sequence cfg prog [ (rdi, 50) ])

let test_reuse_golden_corpus () =
  let checked =
    iter_golden (fun ~what ~machine ~init program ->
        check_reuse ~what ~machine
          (reuse_sequence machine (compile_exn program) init))
  in
  check_bool "covered the corpus" true (checked >= 11 * 3 * 3)

let prop_random_reuse =
  let open QCheck in
  Test.make ~count:40
    ~name:"fastpath: reused rings match fresh ones on random programs"
    (make random_loop_gen) (fun (program, trips) ->
      check_reuse ~what:"random program"
        (reuse_sequence cfg (compile_exn program)
           [ (rdi, trips); (rsi, 1 lsl 22) ]);
      true)

(* ------------------------------------------------------------------ *)
(* The ring pool: one exclusive file per running call                  *)
(* ------------------------------------------------------------------ *)

let pooled_count () = List.length (Booker.pooled ())

(* A load/store stream and a multi-cycle ALU/FP loop: both book every
   port group, and the second wraps the 8192-cycle rings. *)
let pool_programs =
  lazy
    (let rbx = Reg.gpr64 Reg.RBX in
     [
       ( compile_exn
           (loop ~step:1
              [
                i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg (Reg.xmm 0) ];
                i Insn.MOVSS
                  [ Operand.reg (Reg.xmm 0); Operand.mem ~base:rsi ~disp:4096 () ];
                i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
              ]),
         [ (rdi, 3000); (rsi, 1 lsl 22) ] );
       ( compile_exn
           (loop
              [
                i Insn.IMUL [ Operand.imm 3; Operand.reg rbx ];
                i Insn.DIVSD [ Operand.reg (Reg.xmm 1); Operand.reg (Reg.xmm 2) ];
              ]),
         [ (rdi, 2000) ] );
     ])

(* Eight calls alternating the two programs on one fresh pipeline. *)
let pool_calls engine =
  let mem = Memory.create cfg in
  List.concat
    (List.init 4 (fun _ ->
         List.map
           (fun (prog, init) -> engine ?init:(Some init) cfg mem prog)
           (Lazy.force pool_programs)))

let run_engine engine ?init machine mem prog =
  engine ?init ?max_instructions:None ?trace:None ?attr:None machine mem prog

let test_pool_concurrent_callers () =
  (* Two domains and two systhreads simulate at once, each on its own
     pipeline.  Each call holds a file of its own, so no interleaving —
     truly parallel on the domains, at the scheduler's ticks on the
     threads — can change a number. *)
  let expected = pool_calls (run_engine Core.run_reference) in
  ignore (pool_calls (run_engine Core.run));
  let before = pooled_count () in
  let go () = pool_calls (run_engine Core.run) in
  let domains = List.init 2 (fun _ -> Domain.spawn go) in
  let threads = Array.make 2 [] in
  List.init 2 (fun k -> Thread.create (fun () -> threads.(k) <- go ()) ())
  |> List.iter Thread.join;
  let results = List.map Domain.join domains @ Array.to_list threads in
  List.iteri
    (fun w outcomes ->
      List.iteri
        (fun k (fast, reference) ->
          if fast <> reference then
            Alcotest.failf "caller %d, call %d:\n  fast: %s\n  ref:  %s" w k
              (show_result fast) (show_result reference))
        (List.combine outcomes expected))
    results;
  check_bool "the pool grows only to the peak of concurrent calls" true
    (pooled_count () <= max before 4)

let test_pool_sequential_reuse () =
  (* However many pipelines a sequential caller prepares (one per
     variant, chunk or rank), its calls take turns on one file. *)
  let prog, init = List.hd (Lazy.force pool_programs) in
  ignore (Core.run ~init cfg (Memory.create cfg) prog);
  let before = pooled_count () in
  let top = List.hd (Booker.pooled ()) in
  for _ = 1 to 12 do
    ignore (Core.run ~init cfg (Memory.create cfg) prog)
  done;
  check_int "no file per pipeline" before (pooled_count ());
  check_bool "the same file serves every call" true
    (List.hd (Booker.pooled ()) == top)

exception Trace_abort

let test_pool_trace_raises () =
  (* A trace hook that raises mid-call must not leak the call's file:
     it goes back to the pool with the aborted call's bookings in it,
     and the next call on it must still book as on fresh rings. *)
  let prog, init = List.hd (Lazy.force pool_programs) in
  ignore (Core.run ~init cfg (Memory.create cfg) prog);
  let before = pooled_count () in
  let top = List.hd (Booker.pooled ()) in
  let seen = ref 0 in
  let trace _ _ ~issue:_ ~completion:_ =
    incr seen;
    if !seen = 500 then raise Trace_abort
  in
  (match Core.run ~init ~trace cfg (Memory.create cfg) prog with
  | exception Trace_abort -> ()
  | _ -> Alcotest.fail "the trace hook's exception did not propagate");
  check_int "the file is back in the pool" before (pooled_count ());
  check_bool "it is the file the call took" true
    (List.hd (Booker.pooled ()) == top);
  List.iter
    (fun (prog, init) ->
      let fast = Core.run ~init cfg (Memory.create cfg) prog in
      let reference = Core.run_reference ~init cfg (Memory.create cfg) prog in
      if fast <> reference then
        Alcotest.failf "after the abort:\n  fast: %s\n  ref:  %s"
          (show_result fast) (show_result reference))
    (Lazy.force pool_programs)

(* ------------------------------------------------------------------ *)
(* Empty-kernel baseline memo                                          *)
(* ------------------------------------------------------------------ *)

let machines_dir =
  if Sys.file_exists "../machines" then "../machines" else "machines"

let test_empty_kernel_memo () =
  let fresh machine =
    match
      Core.run_reference machine (Memory.create machine)
        (compile_exn [ i Insn.RET [] ])
    with
    | Ok o -> o.Core.cycles
    | Error e -> Alcotest.fail (Core.error_to_string e)
  in
  let files =
    Sys.readdir machines_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
  in
  check_bool "machine presets present" true (List.length files >= 3);
  let machines =
    List.map
      (fun f ->
        match Config_io.of_file (Filename.concat machines_dir f) with
        | Ok m -> (f, m)
        | Error msg -> Alcotest.failf "%s: %s" f msg)
      files
  in
  let scaled =
    Mt_launcher.Options.effective_machine
      { (Mt_launcher.Options.default Config.nehalem_x5650_2s) with
        Mt_launcher.Options.frequency_ghz = Some 1.6 }
  in
  List.iter
    (fun (name, machine) ->
      (* The first call may fill the table, the second must hit it. *)
      for _ = 1 to 2 do
        Alcotest.(check (float 0.)) name (fresh machine)
          (Mt_launcher.Protocol.empty_kernel_cycles machine)
      done)
    (("frequency-scaled x5650", scaled) :: machines)

(* ------------------------------------------------------------------ *)
(* Allocation discipline                                               *)
(* ------------------------------------------------------------------ *)

let test_memory_create_allocation () =
  (* A fresh pipeline pays for what a simulation touches, not for its
     capacity: tag storage is materialised per chunk on first miss and
     the port rings belong to the calls, not the pipeline.  The bound is
     a tenth of the eager layout — every cache's full tag array plus
     its repeat-line table, and a pipeline-owned ring file — measured
     with the GC's exact major-word counter. *)
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let files =
    Sys.readdir machines_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
  in
  check_bool "machine presets present" true (List.length files >= 3);
  List.iter
    (fun f ->
      let machine =
        match Config_io.of_file (Filename.concat machines_dir f) with
        | Ok m -> m
        | Error msg -> Alcotest.failf "%s: %s" f msg
      in
      Gc.minor ();
      let before = major_words () in
      let m = Memory.create machine in
      let words = major_words () -. before in
      let eager =
        List.fold_left
          (fun acc (c : Cache.t) ->
            acc + (Cache.set_count c * (c.Cache.ways + 1)))
          (6 * 2 * Booker.window)
          Memory.[ m.l1; m.l2; m.l3; m.dtlb; m.stlb ]
      in
      if words >= float_of_int eager /. 10. then
        Alcotest.failf "%s: Memory.create allocated %.0f major words (eager \
                        layout %d)" f words eager)
    files

let test_zero_alloc_off_path () =
  let rbx = Reg.gpr64 Reg.RBX in
  let rcx = Reg.gpr64 Reg.RCX in
  let program =
    loop
      [
        i Insn.ADD [ Operand.imm 3; Operand.reg rbx ];
        i Insn.XOR [ Operand.reg rbx; Operand.reg rcx ];
        i Insn.IMUL [ Operand.imm 5; Operand.reg rcx ];
        i Insn.SUB [ Operand.reg rcx; Operand.reg rbx ];
      ]
  in
  let compiled =
    match Core.compile program with
    | Ok c -> c
    | Error e -> Alcotest.fail (Core.error_to_string e)
  in
  let memory = Memory.create cfg in
  let words_for trips =
    (* Warm everything (block build, caches) with the same trip count
       first, so the measured run sees only steady-state work. *)
    ignore (Core.run ~init:[ (rdi, trips) ] cfg memory compiled);
    let before = Gc.minor_words () in
    ignore (Core.run ~init:[ (rdi, trips) ] cfg memory compiled);
    Gc.minor_words () -. before
  in
  let small = words_for 100 in
  let large = words_for 5_000 in
  (* Both runs pay the same per-run setup; the extra ~34k instructions
     of the large run must cost zero additional minor words. *)
  let per_insn = (large -. small) /. float_of_int (7 * (5_000 - 100)) in
  if per_insn > 0.01 then
    Alcotest.failf
      "fast path allocates %.4f minor words per instruction (small run %.0f, \
       large run %.0f)"
      per_insn small large

(* ------------------------------------------------------------------ *)
(* Satellite bug regressions                                           *)
(* ------------------------------------------------------------------ *)

let test_prefetch_not_counted_as_load () =
  let xmm0 = Reg.xmm 0 in
  let program =
    loop
      [
        i Insn.MOVSS [ Operand.mem ~base:rsi (); Operand.reg xmm0 ];
        i Insn.PREFETCHT0 [ Operand.mem ~base:rsi ~disp:256 () ];
        i Insn.ADD [ Operand.imm 4; Operand.reg rsi ];
      ]
  in
  let memory = Memory.create cfg in
  match Core.run_program ~init:[ (rdi, 49); (rsi, 1 lsl 22) ] cfg memory program with
  | Error e -> Alcotest.fail (Core.error_to_string e)
  | Ok r ->
    check_int "demand loads only" 50 r.Core.loads;
    check_int "prefetches counted apart" 50 r.Core.prefetches;
    check_int "no stores" 0 r.Core.stores;
    (* Both the demand load and the hint reach the memory pipeline. *)
    check_int "memory accesses" 100 r.Core.mem.Memory.accesses

let split_access m =
  ignore (Memory.access m ~now:0. ~addr:((1 lsl 22) + 60) ~bytes:8 ~write:false)

let test_reset_clears_split_flag () =
  let m = Memory.create cfg in
  split_access m;
  check_bool "split observed" true (Memory.last_access_was_split m);
  Memory.reset m;
  check_bool "reset clears the split flag" false (Memory.last_access_was_split m)

let test_drain_clears_split_flag () =
  let m = Memory.create cfg in
  split_access m;
  check_bool "split observed" true (Memory.last_access_was_split m);
  Memory.drain m;
  check_bool "drain clears the split flag" false (Memory.last_access_was_split m)

(* ------------------------------------------------------------------ *)
(* access_batch                                                        *)
(* ------------------------------------------------------------------ *)

let check_batch_equiv ~what ~addr ~stride ~count ~bytes ~write =
  let ma = Memory.create cfg in
  let mb = Memory.create cfg in
  let batched =
    Memory.access_batch ma ~now:0. ~addr ~stride ~count ~bytes ~write
  in
  let folded = ref 0. in
  for k = 0 to count - 1 do
    folded := Memory.access mb ~now:0. ~addr:(addr + (k * stride)) ~bytes ~write
  done;
  Alcotest.(check (float 0.)) (what ^ ": ready time") !folded batched;
  check_bool
    (what ^ ": counters")
    true
    (Memory.counters ma = Memory.counters mb)

let test_access_batch_matches_fold () =
  check_batch_equiv ~what:"dense read" ~addr:(1 lsl 22) ~stride:8 ~count:512
    ~bytes:8 ~write:false;
  check_batch_equiv ~what:"page-crossing write" ~addr:((1 lsl 22) + 32)
    ~stride:128 ~count:200 ~bytes:16 ~write:true;
  check_batch_equiv ~what:"line splits" ~addr:((1 lsl 22) + 60) ~stride:64
    ~count:64 ~bytes:8 ~write:false

let tests =
  [
    Alcotest.test_case "equiv: alu loop" `Quick test_equiv_alu_loop;
    Alcotest.test_case "equiv: load/store loop" `Quick test_equiv_load_store_loop;
    Alcotest.test_case "equiv: line splits" `Quick test_equiv_split_accesses;
    Alcotest.test_case "equiv: prefetch and nt" `Quick test_equiv_prefetch_and_nt;
    Alcotest.test_case "equiv: alias sharers" `Quick test_equiv_alias_sharers;
    Alcotest.test_case "equiv: fuel and faults" `Quick test_equiv_fuel_and_faults;
    Alcotest.test_case "equiv: degenerate programs" `Quick
      test_equiv_empty_and_straightline;
    Alcotest.test_case "golden corpus x presets" `Quick test_golden_corpus;
    QCheck_alcotest.to_alcotest prop_random_programs;
    Alcotest.test_case "reuse: directed sequences" `Quick test_reuse_directed;
    Alcotest.test_case "reuse: refill near max_int" `Quick test_reuse_refill;
    Alcotest.test_case "reuse: golden corpus x presets" `Quick
      test_reuse_golden_corpus;
    QCheck_alcotest.to_alcotest prop_random_reuse;
    Alcotest.test_case "pool: concurrent domains and threads" `Quick
      test_pool_concurrent_callers;
    Alcotest.test_case "pool: sequential calls share one file" `Quick
      test_pool_sequential_reuse;
    Alcotest.test_case "pool: raising trace hook returns the file" `Quick
      test_pool_trace_raises;
    Alcotest.test_case "empty-kernel baseline memo" `Quick
      test_empty_kernel_memo;
    Alcotest.test_case "Memory.create allocates a tenth of eager" `Quick
      test_memory_create_allocation;
    Alcotest.test_case "zero minor words per instruction" `Quick
      test_zero_alloc_off_path;
    Alcotest.test_case "prefetches are not demand loads" `Quick
      test_prefetch_not_counted_as_load;
    Alcotest.test_case "reset clears split flag" `Quick
      test_reset_clears_split_flag;
    Alcotest.test_case "drain clears split flag" `Quick
      test_drain_clears_split_flag;
    Alcotest.test_case "access_batch matches folded access" `Quick
      test_access_batch_matches_fold;
  ]
