type t = {
  mutable ports : int;
  counts : int array;
  cycle_of : int array;
  mutable base : int;
  mutable hi : int;
}

let window = 8192

(* [window] is a power of two so the ring index is a mask, not an
   integer division — [book] runs once per booked cycle on the hot
   path and idiv latency would dominate it. *)
let mask = window - 1

let create ~ports =
  {
    ports;
    counts = Array.make window 0;
    cycle_of = Array.make window min_int;
    base = 0;
    hi = -1;
  }

(* Keys of one call are [base + c] with [c] a cycle time, far below
   2^52; past this bound the next call could overflow, so the ring is
   refilled instead. *)
let refill_at = max_int / 2

let reset t ~ports =
  t.ports <- ports;
  if t.hi >= refill_at then begin
    Array.fill t.cycle_of 0 window min_int;
    t.base <- 0;
    t.hi <- -1
  end
  else t.base <- t.hi + 1

(* [idx] is masked into [0, window), so the ring accesses skip the
   bounds checks. *)
let rec book t c =
  let idx = c land mask in
  let key = t.base + c in
  if Array.unsafe_get t.cycle_of idx <> key then begin
    Array.unsafe_set t.cycle_of idx key;
    Array.unsafe_set t.counts idx 0;
    if key > t.hi then t.hi <- key
  end;
  let n = Array.unsafe_get t.counts idx in
  if n < t.ports then begin
    Array.unsafe_set t.counts idx (n + 1);
    c
  end
  else book t (c + 1)

let rec extend_span t c remaining =
  if remaining > 0 then begin
    ignore (book t c);
    extend_span t (c + 1) (remaining - 1)
  end

let book_span t ~start ~occupancy =
  let first = book t start in
  extend_span t (first + 1) (occupancy - 1);
  first

let book_from t ~time ~occupancy =
  float_of_int (book_span t ~start:(int_of_float (Float.ceil time)) ~occupancy)

let file (cfg : Config.t) =
  Array.map
    (fun ports -> create ~ports)
    [|
      cfg.load_ports;
      cfg.store_ports;
      cfg.alu_ports;
      cfg.fp_add_ports;
      cfg.fp_mul_ports;
      cfg.branch_ports;
    |]

let reset_file rings (cfg : Config.t) =
  reset rings.(0) ~ports:cfg.load_ports;
  reset rings.(1) ~ports:cfg.store_ports;
  reset rings.(2) ~ports:cfg.alu_ports;
  reset rings.(3) ~ports:cfg.fp_add_ports;
  reset rings.(4) ~ports:cfg.fp_mul_ports;
  reset rings.(5) ~ports:cfg.branch_ports

(* A Treiber stack of idle files.  Every push conses a fresh cell, so a
   compare-and-set against a cell another caller popped and pushed back
   in the meantime fails (no ABA), and no lock is held across a call —
   a systhread preempted mid-simulation blocks nobody. *)
let pool : t array list Atomic.t = Atomic.make []

let rec acquire cfg =
  match Atomic.get pool with
  | [] -> file cfg
  | f :: rest as top ->
    if Atomic.compare_and_set pool top rest then begin
      reset_file f cfg;
      f
    end
    else acquire cfg

let rec release f =
  let top = Atomic.get pool in
  if not (Atomic.compare_and_set pool top (f :: top)) then release f

let pooled () = Atomic.get pool
