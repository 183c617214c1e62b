(** A set-associative cache with LRU replacement, simulated on real
    line addresses.  Alignment-induced set conflicts between
    concurrently streamed arrays emerge from this model directly. *)

type t = {
  geom : Config.cache_geom;
  sets : int;
  ways : int;
  line_shift : int;
  chunks : int array array;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable on_access : (hit:bool -> unit) option;
  set_mask : int;
  last_line : int array;
}
(** Exposed concretely so {!Memory}'s per-access fast path can inline
    the repeat-same-line hit check without a cross-module call:
    [last_line.(set)] is the line served by the set's previous access,
    which both the hit and the miss paths of {!access} leave
    most-recently-used — a repeat is a guaranteed hit at way 0 with no
    LRU movement.  [set_mask] is [sets - 1] for power-of-two set
    counts, [min_int] otherwise (index by modulo).  Mutate only
    through {!access} / {!reset}.

    The tags are stored lazily, per chunk of {!chunk_sets} consecutive
    sets ([chunks.(set / chunk_sets)]), so a cache costs memory in
    proportion to the sets a simulation touches rather than its
    capacity.  Every chunk starts as one shared zero-length sentinel,
    {!access} materialises a chunk on the first miss into it, and
    {!reset} drops every chunk back to the sentinel.  The invariant:
    an untouched chunk reads as all-invalid, exactly as an eagerly
    filled one — {!access} and {!probe} give the same answers, and
    leave the same LRU order, as on a flat array of invalid tags.
    [last_line] stays a flat array (one slot per set), so the
    repeat-line fast path never dereferences a chunk. *)

val chunk_sets : int
(** Sets per tag chunk (64). *)

val create : Config.cache_geom -> t

val geometry : t -> Config.cache_geom

val access : t -> int -> bool
(** [access t line] looks up line number [line] (byte address divided by
    the line size is the caller's job — see {!line_of_addr}; line
    numbers are non-negative, [-1] marks an invalid way); on a miss
    the line is allocated, evicting the LRU way.  Returns [true] on
    hit. *)

val probe : t -> int -> bool
(** Like {!access} but without updating any state. *)

val set_on_access : t -> (hit:bool -> unit) option -> unit
(** Install (or clear, with [None]) a per-access observer: called by
    every {!access} with the hit/miss outcome, after counters update.
    [probe] never fires it.  The default is [None], which costs one
    branch per access — the deep trace lanes install hooks only while a
    traced measurement is running. *)

val line_of_addr : t -> int -> int
(** Byte address to line number. *)

val reset : t -> unit
(** Invalidate every line and zero the counters.  Drops every tag
    chunk, so the cache holds no tag storage again until its next
    miss. *)

val hits : t -> int

val misses : t -> int

val set_count : t -> int

val set_of_line : t -> int -> int
(** The set index a line maps to (for conflict diagnostics in tests). *)
