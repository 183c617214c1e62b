(* Bumped whenever the serialized value layout changes: the version is
   folded into every digest, so old on-disk entries simply never hit. *)
(* v2: Report.t and Options.t grew measurement-quality fields. *)
(* v3: Report.t gained the bottleneck-profile breakdown and Options.t
   the profile flag. *)
let format_version = "microtools-cache-v3"

type t = {
  table : (string, string) Hashtbl.t;
  lock : Mutex.t;
  dir : string option;
  max_bytes : int option;
  evict_lock : Mutex.t;  (* serialises in-process evictions *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  decode_failures : int Atomic.t;
  evictions : int Atomic.t;
}

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "microtools"
  | _ -> (
    match Sys.getenv_opt "HOME" with
    | Some h when h <> "" ->
      Filename.concat (Filename.concat h ".cache") "microtools"
    | _ -> Filename.concat (Filename.get_temp_dir_name ()) "microtools-cache")

let create ?dir ?max_bytes () =
  Option.iter Mt_durable.mkdir_p dir;
  {
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    dir;
    max_bytes;
    evict_lock = Mutex.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    decode_failures = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let dir t = t.dir

let digest_key parts =
  (* Length-prefixing makes the concatenation injective: ["ab"; "c"]
     and ["a"; "bc"] digest differently. *)
  let b = Buffer.create 256 in
  Buffer.add_string b format_version;
  List.iter
    (fun part ->
      Buffer.add_string b (string_of_int (String.length part));
      Buffer.add_char b ':';
      Buffer.add_string b part)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let entry_path dir key = Filename.concat dir (key ^ ".bin")

(* Best-effort mtime bump: disk hits refresh an entry's LRU recency so
   a hot entry shared between processes is the last to be evicted. *)
let touch path = try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  let in_memory = locked t (fun () -> Hashtbl.find_opt t.table key) in
  let result =
    match in_memory, t.dir with
    | (Some _ as hit), _ -> hit
    | None, None -> None
    | None, Some dir -> (
      let path = entry_path dir key in
      match Mt_durable.read path with
      | Ok data ->
        touch path;
        locked t (fun () -> Hashtbl.replace t.table key data);
        Some data
      | Error _ -> None)
  in
  (match result with
  | Some _ ->
    Atomic.incr t.hits;
    Mt_telemetry.incr (Mt_telemetry.global ()) "cache.hits"
  | None ->
    Atomic.incr t.misses;
    Mt_telemetry.incr (Mt_telemetry.global ()) "cache.misses");
  result

(* ------------------------------------------------------------------ *)
(* Size-bounded LRU eviction                                           *)
(* ------------------------------------------------------------------ *)

let is_entry name = Filename.check_suffix name ".bin"

(* Trim the directory to [max_bytes], oldest mtime first ([touch] on
   every disk hit makes mtime a recency stamp).  [keep] — the entry the
   caller just wrote — is never removed, so a store always survives its
   own eviction pass even when it alone exceeds the budget. *)
let evict_to_budget t dir ~max_bytes ~keep =
  let entries =
    match Sys.readdir dir with
    | exception Sys_error _ -> [||]
    | names -> names
  in
  let stats =
    Array.to_list entries
    |> List.filter_map (fun name ->
           if not (is_entry name) then None
           else
             let path = Filename.concat dir name in
             match Unix.stat path with
             | { Unix.st_mtime; st_size; _ } -> Some (path, st_mtime, st_size)
             | exception Unix.Unix_error _ ->
               None (* raced with another process's eviction *))
  in
  let total = List.fold_left (fun acc (_, _, size) -> acc + size) 0 stats in
  if total > max_bytes then begin
    let by_age =
      List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) stats
    in
    let remaining = ref total in
    List.iter
      (fun (path, _, size) ->
        if !remaining > max_bytes && path <> keep then begin
          match Sys.remove path with
          | () ->
            remaining := !remaining - size;
            Atomic.incr t.evictions;
            Mt_telemetry.incr (Mt_telemetry.global ()) "cache.evictions"
          | exception Sys_error _ -> ()
        end)
      by_age
  end

(* Entry writes need no lock, but two processes trimming one directory
   at once would double-count sizes and race each other below the
   budget: the scan runs under the directory's advisory lock. *)
let maybe_evict t dir ~keep =
  match t.max_bytes with
  | None -> ()
  | Some max_bytes ->
    Mutex.lock t.evict_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.evict_lock)
      (fun () ->
        Mt_durable.with_dir_lock dir (fun () ->
            evict_to_budget t dir ~max_bytes ~keep))

let store t key data =
  Mt_telemetry.incr (Mt_telemetry.global ()) "cache.stores";
  locked t (fun () -> Hashtbl.replace t.table key data);
  match t.dir with
  | None -> ()
  | Some dir -> (
    (* Staged and renamed: a concurrent reader sees either no entry or a
       complete one.  An unwritable directory degrades to memory-only:
       the cache is an accelerator, not a source of truth. *)
    let path = entry_path dir key in
    match Mt_durable.write path data with
    | () -> maybe_evict t dir ~keep:path
    | exception Sys_error _ -> ())

let with_cache c ~key compute ~encode ~decode =
  match c with
  | None -> compute ()
  | Some t -> (
    let k = key () in
    match find t k with
    | Some data -> (
      match decode data with
      | v -> v
      | exception _ ->
        (* A corrupt or stale entry (truncated write, foreign bytes at
           our key) must degrade to a recompute, never to a crash: the
           cache is an accelerator, not a source of truth.  The fresh
           value overwrites the bad entry. *)
        Atomic.incr t.decode_failures;
        Mt_telemetry.incr (Mt_telemetry.global ()) "cache.decode_failures";
        let v = compute () in
        store t k (encode v);
        v)
    | None ->
      let v = compute () in
      store t k (encode v);
      v)

let hits t = Atomic.get t.hits

let misses t = Atomic.get t.misses

let decode_failures t = Atomic.get t.decode_failures

let evictions t = Atomic.get t.evictions

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
