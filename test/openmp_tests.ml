(* Tests for the OpenMP runtime model. *)

open Mt_machine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let cfg = Config.sandy_bridge_e31240

let rt threads = Mt_openmp.default_runtime ~threads

let test_static_chunks_cover_space () =
  let chunks = Mt_openmp.chunks_of (rt 4) ~total:10 in
  let covered =
    List.concat_map
      (fun c ->
        List.init c.Mt_openmp.iterations (fun k -> c.Mt_openmp.start_iteration + k))
      chunks
  in
  Alcotest.(check (list int)) "exact cover" (List.init 10 Fun.id)
    (List.sort compare covered)

let test_static_chunks_balanced () =
  let chunks = Mt_openmp.chunks_of (rt 4) ~total:10 in
  check_int "four chunks" 4 (List.length chunks);
  let sizes = List.map (fun c -> c.Mt_openmp.iterations) chunks in
  check_bool "ceil-balanced" true (List.sort compare sizes = [ 2; 2; 3; 3 ])

let test_static_more_threads_than_work () =
  let chunks = Mt_openmp.chunks_of (rt 4) ~total:2 in
  check_int "only two threads used" 2 (List.length chunks)

let test_static_chunked_schedule () =
  let rt = { (rt 2) with Mt_openmp.schedule = Mt_openmp.Static_chunk 3 } in
  let chunks = Mt_openmp.chunks_of rt ~total:10 in
  check_int "four chunks of <=3" 4 (List.length chunks);
  (* Round-robin threads: 0,1,0,1. *)
  Alcotest.(check (list int)) "round robin" [ 0; 1; 0; 1 ]
    (List.map (fun c -> c.Mt_openmp.thread) chunks);
  check_int "last chunk remainder" 1
    (List.nth chunks 3).Mt_openmp.iterations

let test_empty_iteration_space () =
  check_int "no chunks" 0 (List.length (Mt_openmp.chunks_of (rt 4) ~total:0))

let test_region_overhead_grows_with_threads () =
  check_bool "8 threads cost more than 2" true
    (Mt_openmp.region_overhead_cycles cfg (rt 4)
    > Mt_openmp.region_overhead_cycles cfg (rt 2))

(* A region over the schedule's chunks, each carrying its cost. *)
let region rt ~total cost =
  Mt_openmp.parallel_region cfg rt
    (List.map (fun c -> (c, cost c)) (Mt_openmp.chunks_of rt ~total))
    ~run_chunk:(fun _ cycles ~sharers ->
      check_int "sharers = active threads" (min rt.Mt_openmp.threads total) sharers;
      Ok cycles)
  |> Result.get_ok

let test_parallel_region_waits_for_slowest () =
  let cost = region (rt 4) ~total:8 (fun c -> if c.Mt_openmp.thread = 2 then 1000. else 10.) in
  check_bool "slowest thread dominates" true (cost >= 1000.);
  check_bool "plus overhead only" true
    (cost < 1000. +. Mt_openmp.region_overhead_cycles cfg (rt 4) +. 1.)

let test_parallel_region_sums_per_thread_chunks () =
  let rt = { (rt 2) with Mt_openmp.schedule = Mt_openmp.Static_chunk 1 } in
  (* 4 chunks of size 1, 2 threads -> each thread runs 2 chunks of 50. *)
  let cost = region rt ~total:4 (fun _ -> 50.) in
  check_bool "two chunks per thread" true
    (cost >= 100. && cost < 100. +. Mt_openmp.region_overhead_cycles cfg rt +. 1.)

let test_pin_map_compact () =
  let pins = Mt_openmp.pin_map cfg (rt 4) in
  Alcotest.(check (array int)) "compact pinning" [| 0; 1; 2; 3 |] pins

let test_threads_validated () =
  check_bool "zero threads rejected" true
    (try ignore (Mt_openmp.default_runtime ~threads:0); false
     with Invalid_argument _ -> true)

let prop_chunks_partition =
  QCheck.Test.make ~count:200 ~name:"openmp: static chunks partition any space"
    QCheck.(pair (int_range 1 16) (int_range 0 1000))
    (fun (threads, total) ->
      let chunks = Mt_openmp.chunks_of (rt threads) ~total in
      let sum = List.fold_left (fun acc c -> acc + c.Mt_openmp.iterations) 0 chunks in
      let sorted =
        List.sort compare (List.map (fun c -> c.Mt_openmp.start_iteration) chunks)
      in
      let no_overlap =
        let rec go = function
          | a :: (b :: _ as rest) -> a < b && go rest
          | _ -> true
        in
        go sorted
      in
      sum = total && no_overlap)

let tests =
  [
    Alcotest.test_case "static chunks cover the space" `Quick test_static_chunks_cover_space;
    Alcotest.test_case "static chunks balanced" `Quick test_static_chunks_balanced;
    Alcotest.test_case "more threads than work" `Quick test_static_more_threads_than_work;
    Alcotest.test_case "static chunked schedule" `Quick test_static_chunked_schedule;
    Alcotest.test_case "empty iteration space" `Quick test_empty_iteration_space;
    Alcotest.test_case "region overhead grows" `Quick test_region_overhead_grows_with_threads;
    Alcotest.test_case "parallel_region waits for slowest" `Quick test_parallel_region_waits_for_slowest;
    Alcotest.test_case "parallel_region sums chunks per thread" `Quick test_parallel_region_sums_per_thread_chunks;
    Alcotest.test_case "pin map compact" `Quick test_pin_map_compact;
    Alcotest.test_case "threads validated" `Quick test_threads_validated;
    QCheck_alcotest.to_alcotest prop_chunks_partition;
  ]
