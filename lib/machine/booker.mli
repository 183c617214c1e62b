(** Cycle-granular port booking with gap filling: a uop that becomes
    ready at cycle [t] takes the first cycle [>= t] in which fewer than
    [ports] uops are already booked — younger ready uops slot into the
    holes older stalled uops leave, as a real scheduler does.  The ring
    remembers {!window} cycles; bookings never spread wider than the
    instruction window allows in practice.

    A ring is reused across calls and reset in O(1): the slot of cycle
    [c] is always [c land mask], but it stores the key [base + c], and
    {!reset} raises [base] past every key written since the ring was
    last filled.  A slot holding an older call's key therefore reads as
    empty, exactly like a freshly created ring, so a reused ring books
    bit-identically to a fresh one. *)

type t = {
  mutable ports : int;  (** Uops the port group accepts per cycle. *)
  counts : int array;  (** Uops booked in the slot's cycle. *)
  cycle_of : int array;  (** Key ([base + cycle]) a slot describes. *)
  mutable base : int;  (** Key offset of the current call. *)
  mutable hi : int;  (** Largest key written since the last refill. *)
}
(** Exposed concretely so {!Core.run} can open-code the first probe of
    a single-uop booking.  An inline probe must write the key
    [base + c] and raise [hi] to it, as {!book} does. *)

val window : int
(** Cycles the ring remembers (8192, a power of two). *)

val mask : int
(** [window - 1]: the slot of cycle [c] is [c land mask]. *)

val create : ports:int -> t

val reset : t -> ports:int -> unit
(** Forget every booking in O(1) and set the port count for the next
    call.  When [base] nears [max_int] the ring is refilled once
    instead. *)

val book : t -> int -> int
(** [book t c] books one uop in the first cycle [>= c] with a free
    port and returns that cycle. *)

val book_span : t -> start:int -> occupancy:int -> int
(** Book [occupancy] consecutive cycles, the first no earlier than
    [start]; returns the first booked cycle.  All-integer so the hot
    path never boxes. *)

val book_from : t -> time:float -> occupancy:int -> float
(** Float-facing {!book_span} from [ceil time], for the reference
    interpreter. *)

(** {1 The ring pool}

    Ring files are call-scoped: {!Core.run} takes one from a
    process-wide lock-free pool on entry and gives it back on every
    exit path.  A file taken from the pool belongs to that call alone,
    so concurrent calls — on domains or on systhreads — never share a
    ring, and the pool holds only as many files as calls ever ran at
    once, however many memory pipelines are alive.  Ring sizes do not
    depend on the machine, so one file serves any {!Config.t}. *)

val acquire : Config.t -> t array
(** Pop an idle file from the pool (or make a fresh one when the pool
    is empty) and {!reset} each ring with the machine's port count.
    The file holds one ring per port group, in booker index order:
    Load 0, Store 1, Alu 2, Fp_add 3, Fp_mul/Fp_div 4, Branch 5.  The
    caller owns it exclusively until {!release}. *)

val release : t array -> unit
(** Push a file back to the pool.  Release each acquired file exactly
    once and do not use it afterwards. *)

val pooled : unit -> t array list
(** The idle files, most recently released first (for tests). *)
