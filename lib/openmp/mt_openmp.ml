open Mt_machine

type schedule = Static | Static_chunk of int | Dynamic of int | Guided of int

type runtime = {
  threads : int;
  schedule : schedule;
  fork_overhead_ns : float;
  join_overhead_ns : float;
  per_thread_overhead_ns : float;
}

let default_runtime ~threads =
  if threads < 1 then invalid_arg "Mt_openmp.default_runtime: threads < 1";
  {
    threads;
    schedule = Static;
    fork_overhead_ns = 1500.;
    join_overhead_ns = 1000.;
    per_thread_overhead_ns = 150.;
  }

let region_overhead_cycles cfg rt =
  let ns =
    rt.fork_overhead_ns +. rt.join_overhead_ns
    +. (rt.per_thread_overhead_ns *. float_of_int (max 0 (rt.threads - 1)))
  in
  Config.cycles_of_ns cfg ns

type chunk = { thread : int; start_iteration : int; iterations : int }

let dispatch_overhead_ns = 80.

(* Round-robin chunks of explicit sizes. *)
let round_robin rt sizes =
  let rec go index start acc = function
    | [] -> List.rev acc
    | size :: rest ->
      let c = { thread = index mod rt.threads; start_iteration = start; iterations = size } in
      go (index + 1) (start + size) (c :: acc) rest
  in
  go 0 0 [] sizes

let chunks_of rt ~total =
  if total <= 0 then []
  else begin
    match rt.schedule with
    | Static ->
      (* libgomp static: ceil-sized contiguous blocks, earlier threads
         get the larger ones. *)
      let base = total / rt.threads in
      let extra = total mod rt.threads in
      let rec go thread start acc =
        if thread >= rt.threads || start >= total then List.rev acc
        else begin
          let size = base + (if thread < extra then 1 else 0) in
          if size = 0 then List.rev acc
          else go (thread + 1) (start + size)
              ({ thread; start_iteration = start; iterations = size } :: acc)
        end
      in
      go 0 0 []
    | Static_chunk chunk_size | Dynamic chunk_size ->
      if chunk_size <= 0 then invalid_arg "Mt_openmp.chunks_of: chunk size <= 0";
      let rec sizes start acc =
        if start >= total then List.rev acc
        else begin
          let size = min chunk_size (total - start) in
          sizes (start + size) (size :: acc)
        end
      in
      round_robin rt (sizes 0 [])
    | Guided min_chunk ->
      if min_chunk <= 0 then invalid_arg "Mt_openmp.chunks_of: guided minimum <= 0";
      let rec sizes remaining acc =
        if remaining <= 0 then List.rev acc
        else begin
          let size = min remaining (max min_chunk (remaining / rt.threads)) in
          sizes (remaining - size) (size :: acc)
        end
      in
      round_robin rt (sizes total [])
  end

let is_dynamic rt =
  match rt.schedule with
  | Dynamic _ | Guided _ -> true
  | Static | Static_chunk _ -> false

let parallel_region cfg rt work ~run_chunk =
  let ( let* ) = Result.bind in
  let active_threads =
    List.sort_uniq compare (List.map (fun (c, _) -> c.thread) work) |> List.length
  in
  let sharers = max 1 active_threads in
  let* slowest =
    if is_dynamic rt then begin
      (* Greedy dispatch: each chunk goes to the thread that frees up
         first, plus a bookkeeping cost per dispatch. *)
      let dispatch = Config.cycles_of_ns cfg dispatch_overhead_ns in
      let clocks = Array.make rt.threads 0. in
      let rec go = function
        | [] -> Ok (Array.fold_left Float.max 0. clocks)
        | (c, x) :: rest ->
          let thread = ref 0 in
          for i = 1 to rt.threads - 1 do
            if clocks.(i) < clocks.(!thread) then thread := i
          done;
          let* cycles = run_chunk { c with thread = !thread } x ~sharers in
          clocks.(!thread) <- clocks.(!thread) +. dispatch +. cycles;
          go rest
      in
      go work
    end
    else begin
      (* Per-thread time is the sum of its chunks; the region waits for
         the slowest thread. *)
      let per_thread = Hashtbl.create 8 in
      let rec go = function
        | [] -> Ok (Hashtbl.fold (fun _ v acc -> Float.max v acc) per_thread 0.)
        | (c, x) :: rest ->
          let* cycles = run_chunk c x ~sharers in
          let prev = Option.value ~default:0. (Hashtbl.find_opt per_thread c.thread) in
          Hashtbl.replace per_thread c.thread (prev +. cycles);
          go rest
      in
      go work
    end
  in
  Ok (slowest +. region_overhead_cycles cfg rt)

let pin_map cfg rt =
  Array.init rt.threads (fun i -> i mod Config.core_count cfg)
