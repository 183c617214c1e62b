(** Durable writes: the one place the tree stages, renames, locks and
    appends.  Every artifact someone may commit or resume from — CSV,
    snapshot, plan, telemetry export, cache entry, history snapshot —
    goes through {!write}; every JSON-lines log (checkpoint journal,
    history manifest) through {!Jsonl}.

    The crash model is process death: after a SIGKILL at any point a
    {!write} target holds its old bytes or its new bytes, and a
    {!Jsonl} file is valid up to at most one torn final line.  There
    is no fsync, so a power loss may lose recent writes. *)

val write : string -> string -> unit
(** [write path data] replaces [path]'s contents with [data].  A
    regular or missing target is staged under an [O_EXCL] temp name in
    its own directory ([path.PID.DOMAIN.N.tmp]), written, closed with a
    checked close and renamed over [path].  Any other existing node
    (device, FIFO, symlink such as [/dev/stdout], directory) is written
    in place and never replaced.

    @raise Sys_error on any failure ([path: reason]).  The target is
    then untouched and no temp file is left behind. *)

val read : string -> (string, string) result
(** The whole file, or the open/read error. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents.  Best effort: failures
    are silent, so callers check for the directory (or let the next
    write report the error). *)

val with_dir_lock : string -> (unit -> 'a) -> 'a
(** Run [f] holding an advisory [lockf] lock on [DIR/.lock], shared
    with every process using the same directory and released on
    process death.  An unlockable directory runs [f] unguarded. *)

(** Append-only line logs. *)
module Jsonl : sig
  type t

  val open_ : ?append:bool -> string -> t
  (** Open for writing; [append] (default false: truncate) continues
      an existing file.  A file that ends mid-line (a writer died
      during its last write) is repaired: the next line starts on a
      fresh line, so only the torn line is lost.
      @raise Sys_error when the file cannot be opened. *)

  val path : t -> string

  val add : t -> string -> unit
  (** Append one line (which must not contain a newline) with a single
      flushed write, under a mutex: thread- and domain-safe.
      @raise Sys_error on a failed write. *)

  val close : t -> unit

  val load : string -> (string -> 'a option) -> ('a list, string) result
  (** Decode every non-blank line in file order, dropping the lines
      the decoder rejects (a torn final line, a foreign line).
      [Error] only when the file cannot be read. *)
end
