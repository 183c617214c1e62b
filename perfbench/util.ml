(* Shared plumbing for the workloads: host clock, order statistics,
   process counters, scratch files, and the pass/fail ledger every
   workload fills. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median xs = Mt_stats.median (Array.of_list xs)

(* Linear-interpolated percentile; +infinity entries (failed jobs) sort
   last, so they count as missing every latency limit. *)
let percentile xs p = Mt_stats.percentile (Array.of_list xs) p

let sum xs = List.fold_left ( +. ) 0. xs

(* A diagnostic line on standard error: a label and a series. *)
let note label xs =
  Printf.eprintf "perfbench: %s: %s\n%!" label
    (String.concat " " (List.map (Printf.sprintf "%.4g") xs))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* Everything the benchmark writes stays under this directory of the
   checkout it runs from. *)
let work_root = ".perfbench_work"

let trace_path workload =
  Filename.concat work_root (Printf.sprintf "trace-%s.json" workload)

let md5 s = Digest.to_hex (Digest.string s)

(* Peak resident set of this process since the last [fresh_heap], from
   the kernel's high-water mark. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Start a sample from a compacted heap, as a fresh process would, and
   restart the kernel's resident-set high-water mark (Linux). *)
let fresh_heap () =
  Gc.compact ();
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
      output_string oc "5")

type gc_delta = { minor_mwords : float; major_collections : float }

let gc_measure f =
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  ( x,
    {
      minor_mwords = (s1.Gc.minor_words -. s0.Gc.minor_words) /. 1e6;
      major_collections =
        float_of_int (s1.Gc.major_collections - s0.Gc.major_collections);
    } )

(* The ledger behind the result line.  An operation is one unit of
   work the program was asked to do (a variant, a launch, a job) and
   counts as attempted; a failed one also counts as failed.  A failed
   check (an output comparison or a regime guard) counts as failed and
   makes the run incorrect. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
}

let ledger () = { attempted = 0; failed = 0; correct = true }

let operation l ok =
  l.attempted <- l.attempted + 1;
  if not ok then l.failed <- l.failed + 1

let check l ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        l.failed <- l.failed + 1;
        l.correct <- false;
        Printf.eprintf "perfbench: check failed: %s\n%!" msg
      end)
    fmt

(* What a workload hands back to the main program. *)
type report = {
  ledger : ledger;
  metrics : (string * float) list;
}

(* [f 0], [f 1], ... until [deadline] has passed, at least once; the
   results in call order. *)
let until_deadline ~deadline f =
  let rec go i acc =
    if i > 0 && now () >= deadline then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* Pass [i] of a traced run: the untraced and the traced half, the
   untraced one first on even passes and last on odd ones, so warm-up
   and drift fall on both sides of the overhead ratio alike. *)
let alternate i ~plain ~traced =
  if i mod 2 = 0 then begin
    let p = plain () in
    (p, traced ())
  end
  else begin
    let t = traced () in
    (plain (), t)
  end
