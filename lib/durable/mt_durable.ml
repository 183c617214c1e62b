(* The one persistence policy of the tree.  The crash model is process
   death (SIGKILL, OOM kill): a rename is atomic against it and a
   flushed write() has reached the kernel, so no fsync is issued — see
   docs/ROBUSTNESS.md for the measured cost that rules it out. *)

(* Open a fresh temp file next to [path] that no other writer can hold.
   The name carries pid + domain id, so two processes sharing the
   directory (the daemon and a CLI run, or two daemons) can never open
   the same [.tmp] and interleave writes before the rename; [O_EXCL]
   turns any residual collision (pid reuse after a crash left a stale
   file) into a retry under a new suffix instead of a silent
   truncation. *)
let open_exclusive_tmp path =
  let pid = Unix.getpid () in
  let domain = (Domain.self () :> int) in
  let rec attempt n =
    let tmp = Printf.sprintf "%s.%d.%d.%d.tmp" path pid domain n in
    match
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ] 0o644
    with
    | fd -> (tmp, fd)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when n < 1000 -> attempt (n + 1)
  in
  attempt 0

(* Write all of [data] and close, both checked: a failed write or a
   failed close (the last chance to report a deferred error) raises
   after the descriptor is released. *)
let put fd data =
  match Unix.write_substring fd data 0 (String.length data) with
  | _ -> Unix.close fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let write path data =
  try
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_REG; _ }
    | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> (
      (* Stage and rename: a reader (or a crash) sees the old document
         or the new one, never a prefix. *)
      let tmp, fd = open_exclusive_tmp path in
      match
        put fd data;
        Unix.rename tmp path
      with
      | () -> ()
      | exception e ->
        (try Unix.unlink tmp with Unix.Unix_error _ -> ());
        raise e)
    | _ ->
      (* A device, FIFO, symlink (/dev/stdout) or directory is written
         in place: renaming over it would replace the node itself. *)
      let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] in
      put (Unix.openfile path flags 0o644) data
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let read path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | text -> Ok text
        | exception (End_of_file | Sys_error _) -> Error (path ^ ": short read"))

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ()
  end

(* The lock lives in a dedicated [.lock] file so it never collides with
   directory content, and lockf releases on process death, so a crashed
   holder cannot wedge the directory.  An unlockable directory
   (read-only, exotic FS) runs [f] unguarded: callers only lock to
   serialise, never for the atomicity of a single write. *)
let with_dir_lock dir f =
  let lock_path = Filename.concat dir ".lock" in
  match Unix.openfile lock_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
        f ())

module Jsonl = struct
  type t = { oc : out_channel; lock : Mutex.t; path : string }

  (* Does the file end mid-line (death during the final write)?
     Appending straight after would glue the first new line onto the
     torn one and lose it too. *)
  let ends_mid_line path =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          len > 0
          &&
          (seek_in ic (len - 1);
           input_char ic <> '\n'))

  let open_ ?(append = false) path =
    let torn = append && ends_mid_line path in
    let flags =
      [ Open_wronly; Open_creat; Open_binary; (if append then Open_append else Open_trunc) ]
    in
    let oc = open_out_gen flags 0o644 path in
    (* The repair newline goes out with the first added line. *)
    if torn then output_char oc '\n';
    { oc; lock = Mutex.create (); path }

  let path t = t.path

  let add t line =
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        output_string t.oc line;
        output_char t.oc '\n';
        flush t.oc)

  let close t = close_out_noerr t.oc

  let load path decode =
    Result.map
      (fun text ->
        List.filter_map
          (fun line -> if String.trim line = "" then None else decode line)
          (String.split_on_char '\n' text))
      (read path)
end
