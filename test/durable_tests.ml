(* Tests for the one durable-write path: Mt_durable.write's staged
   rename and its in-place branch for non-regular targets, error
   surfacing through every artifact writer built on it, the O_EXCL
   temp-name collision, and a SIGKILL loop over a writer that rewrites
   one artifact and appends journal and history-manifest lines. *)

module Journal = Mt_resilience.Journal
module History = Mt_obsv.History
module Snapshot = Mt_obsv.Snapshot

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let temp_dir () =
  let path = Filename.temp_file "mt-durable" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let read_ok path =
  match Mt_durable.read path with
  | Ok text -> text
  | Error msg -> Alcotest.failf "read %s: %s" path msg

let tmp_files dir =
  List.filter (fun n -> Filename.check_suffix n ".tmp") (Array.to_list (Sys.readdir dir))

let is_char_device path = (Unix.lstat path).Unix.st_kind = Unix.S_CHR

let raises_sys_error what f =
  match f () with
  | () -> Alcotest.failf "%s: a failed write was reported as saved" what
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* write                                                               *)
(* ------------------------------------------------------------------ *)

let test_write_replaces () =
  let dir = temp_dir () in
  let path = Filename.concat dir "doc" in
  Mt_durable.write path "first";
  Mt_durable.write path "second";
  check_string "latest document" "second" (read_ok path);
  check_int "no temp file left" 0 (List.length (tmp_files dir))

(* /dev/full fails every write with ENOSPC.  The suite may run as root,
   so a staged write here would create a temp file in /dev and rename
   it over the device node: the in-place branch must catch it first. *)
let test_write_dev_full () =
  if Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd" then begin
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let before = open_fds () in
    raises_sys_error "/dev/full" (fun () -> Mt_durable.write "/dev/full" "x");
    check_int "no descriptor leaked" before (open_fds ());
    check_bool "still a character device" true (is_char_device "/dev/full")
  end

let test_write_dev_null () =
  if Sys.file_exists "/dev/null" then begin
    Mt_durable.write "/dev/null" "x";
    check_bool "still a character device" true (is_char_device "/dev/null")
  end

let test_write_tmp_collision () =
  let dir = temp_dir () in
  let path = Filename.concat dir "entry.bin" in
  (* Pre-plant the first temp name this process would pick (a stale
     file left by a crashed twin whose pid got recycled): O_EXCL must
     skip to the next suffix, never truncate into the planted file. *)
  let planted =
    Printf.sprintf "%s.%d.%d.0.tmp" path (Unix.getpid ()) (Domain.self () :> int)
  in
  Mt_durable.write planted "stale";
  Mt_durable.write path "fresh";
  check_string "written around the stale tmp" "fresh" (read_ok path);
  check_string "planted file untouched" "stale" (read_ok planted)

let test_write_failure_leaves_target () =
  let dir = temp_dir () in
  raises_sys_error "missing parent" (fun () ->
      Mt_durable.write (Filename.concat dir "no/such/doc") "x");
  let target = Filename.concat dir "target" in
  Unix.mkdir target 0o700;
  Mt_durable.write (Filename.concat target "inside") "kept";
  raises_sys_error "directory target" (fun () -> Mt_durable.write target "x");
  check_string "directory content intact" "kept"
    (read_ok (Filename.concat target "inside"));
  check_int "no temp file left" 0 (List.length (tmp_files dir))

(* ------------------------------------------------------------------ *)
(* Artifact writers surface a failed write                             *)
(* ------------------------------------------------------------------ *)

let snap () =
  Snapshot.make ~tool:"test" ~created_at:0. ~kernel:("copy", "kh-1")
    ~machine:("laptop", "mh-1") ~seed:7
    [ Snapshot.of_values ~key:"v0" ~seed:7 [| 1.0; 1.1; 1.2 |] ]

let test_artifact_writers_surface_errors () =
  if Sys.file_exists "/dev/full" then begin
    raises_sys_error "Snapshot.save" (fun () -> Snapshot.save (snap ()) "/dev/full");
    let plan =
      {
        Mt_optimize.Plan.schema = Mt_optimize.Plan.schema_version;
        created_at = 0.;
        history_dir = "h";
        runs = 0;
        kernel_name = "k";
        kernel_hash = "kh";
        machine_name = "m";
        machine_hash = "mh";
        knobs =
          {
            Mt_optimize.Plan.min_runs = 1;
            corr_threshold = 0.9;
            cov_stable = 0.01;
            rciw_stable = 0.02;
            min_experiments = 3;
          };
        keep = [];
        drop = [];
      }
    in
    raises_sys_error "Plan.save" (fun () -> Mt_optimize.Plan.save plan "/dev/full");
    raises_sys_error "write_metrics_csv" (fun () ->
        Mt_telemetry.write_metrics_csv (Mt_telemetry.create ()) "/dev/full")
  end

let test_history_append_surfaces_errors () =
  (* A directory squatting on the snapshot's file name makes the shared
     write fail: the append must report it and list nothing. *)
  let dir = temp_dir () in
  let s = snap () in
  let digest =
    String.sub (Digest.to_hex (Digest.string (Snapshot.to_string s))) 0 12
  in
  Unix.mkdir (Filename.concat dir (Printf.sprintf "snap-000001-%s.json" digest)) 0o700;
  (match History.append ~dir s with
  | Ok _ -> Alcotest.fail "a failed snapshot write was archived"
  | Error _ -> ());
  check_bool "no manifest line written" false
    (Sys.file_exists (Filename.concat dir History.manifest_name))

(* ------------------------------------------------------------------ *)
(* SIGKILL loop                                                        *)
(* ------------------------------------------------------------------ *)

(* The writer half of the kill test, re-exec'd like the cache stress
   writer (test_microtools.ml dispatches on MT_DURABLE_CRASH_WRITER
   before Alcotest runs): rewrite one artifact with two large distinct
   documents in turn and append journal and manifest lines until
   killed.  The journal payload makes each line ~12 KB, so a kill can
   land inside one line's write. *)
let crash_docs = [| String.make (1 lsl 20) 'a'; String.make (1 lsl 20) 'b' |]

let crash_paths dir =
  ( Filename.concat dir "artifact",
    Filename.concat dir "journal.jsonl",
    Filename.concat dir "history" )

let crash_writer dir =
  let target, journal, history = crash_paths dir in
  let w = Journal.create ~append:true journal in
  let payload = String.make 6000 'p' in
  let rec loop i =
    Mt_durable.write target crash_docs.(i land 1);
    Journal.record w ~key:(Printf.sprintf "%d-%d" (Unix.getpid ()) i) ~id:"crash"
      ~data:payload;
    (match History.append ~dir:history (snap ()) with
    | Ok _ -> ()
    | Error msg ->
      prerr_endline msg;
      exit 2);
    loop (i + 1)
  in
  loop 0

(* Non-blank lines on disk minus the ones the loader keeps: the lines
   lost to tears so far. *)
let lost_lines path loaded =
  let text = Result.value ~default:"" (Mt_durable.read path) in
  List.length (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text))
  - loaded

let journal_entries path =
  match Journal.load path with
  | Ok entries -> entries
  | Error msg -> Alcotest.failf "journal load: %s" msg

let history_length dir =
  match History.load dir with
  | Ok hist -> (hist, History.length hist)
  | Error msg -> Alcotest.failf "history load: %s" msg

let test_crash_kill_loop () =
  let dir = temp_dir () in
  let target, journal, history = crash_paths dir in
  let manifest = Filename.concat history History.manifest_name in
  Mt_durable.write target crash_docs.(0);
  let env =
    Array.append [| "MT_DURABLE_CRASH_WRITER=" ^ dir |] (Unix.environment ())
  in
  let journal_lost = ref 0 and manifest_lost = ref 0 in
  let size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  for k = 0 to 31 do
    let before = size journal in
    let pid =
      Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
        Unix.stdin Unix.stderr Unix.stderr
    in
    (* Kill at a varied point after the writer is demonstrably inside
       its loop. *)
    let deadline = Unix.gettimeofday () +. 30. in
    while size journal = before && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    Unix.sleepf (0.0007 *. float_of_int k);
    Unix.kill pid Sys.sigkill;
    (match Unix.waitpid [] pid with
    | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
    | _ -> Alcotest.failf "kill %d: the writer exited on its own" k);
    let doc = read_ok target in
    check_bool
      (Printf.sprintf "kill %d: artifact is one whole document" k)
      true
      (doc = crash_docs.(0) || doc = crash_docs.(1));
    (* The journal loses at most the torn final line... *)
    let entries = List.length (journal_entries journal) in
    let lost = lost_lines journal entries in
    check_bool (Printf.sprintf "kill %d: journal loses at most one line" k) true
      (lost <= !journal_lost + 1);
    journal_lost := lost;
    (* ...and the next append repairs it. *)
    let key = Printf.sprintf "repair-%d" k in
    let w = Journal.create ~append:true journal in
    Journal.record w ~key ~id:"repair" ~data:"r";
    Journal.close w;
    let repaired = journal_entries journal in
    check_int (Printf.sprintf "kill %d: journal append after the kill" k) (entries + 1)
      (List.length repaired);
    check_bool (Printf.sprintf "kill %d: repair record loads" k) true
      (Journal.find repaired ~key <> None);
    (* The same for the history manifest, whose listed documents must
       all be in place. *)
    let hist, listed = history_length history in
    let lost = lost_lines manifest listed in
    check_bool (Printf.sprintf "kill %d: manifest loses at most one line" k) true
      (lost <= !manifest_lost + 1);
    manifest_lost := lost;
    (match History.latest hist with
    | Some e ->
      check_bool (Printf.sprintf "kill %d: newest listed snapshot loads" k) true
        (Result.is_ok (History.snapshot hist e))
    | None -> ());
    (match History.append ~dir:history (snap ()) with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "kill %d: append after the kill: %s" k msg);
    check_int (Printf.sprintf "kill %d: manifest append after the kill" k) (listed + 1)
      (snd (history_length history))
  done;
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir))

let tests =
  [
    Alcotest.test_case "write replaces a regular file" `Quick test_write_replaces;
    Alcotest.test_case "write to /dev/full raises and closes" `Quick test_write_dev_full;
    Alcotest.test_case "write to /dev/null keeps the device" `Quick test_write_dev_null;
    Alcotest.test_case "stale tmp collision" `Quick test_write_tmp_collision;
    Alcotest.test_case "failed write leaves the target" `Quick
      test_write_failure_leaves_target;
    Alcotest.test_case "artifact writers surface errors" `Quick
      test_artifact_writers_surface_errors;
    Alcotest.test_case "history append surfaces errors" `Quick
      test_history_append_surfaces_errors;
    Alcotest.test_case "SIGKILL loop" `Slow test_crash_kill_loop;
  ]
