(* The repository's benchmark: one workload per run, its result as the
   last line of standard output.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the line carries every end-to-end metric named in
   BENCHMARK.json, with --trace 1 every per-layer metric; a per-layer
   metric whose layer the workload does not exercise reads 0.  The exit
   code is 1 when an output check or regime guard failed.

   serve_warm runs but is not declared in BENCHMARK.json: the daemon's
   Accepted/Row race makes some of its jobs fail, a different number on
   every run (see README.md).  Metrics a workload gives that
   BENCHMARK.json does not declare, such as its serve.* layer, go to
   standard error. *)

let workloads =
  [
    ("study_l1", (Study_l1.run, Study_l1.run_traced));
    ("stream_ram", (Stream_ram.run, Stream_ram.run_traced));
    ("serve_warm", (Serve_warm.run, Serve_warm.run_traced));
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (study_l1|stream_ram|serve_warm) --seed N \
     --seconds S --trace 0|1";
  exit 2

let arguments () =
  let rec pairs acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      pairs ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = pairs [] (List.tl (Array.to_list Sys.argv)) in
  let get key convert =
    match Option.bind (List.assoc_opt key args) convert with
    | Some v -> v
    | None -> usage ()
  in
  ( get "--workload" (fun w -> List.assoc_opt w workloads),
    get "--seed" int_of_string_opt,
    get "--seconds" float_of_string_opt,
    get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) )

(* (name, unit) of every metric BENCHMARK.json lists under [section]. *)
let declared section =
  let module J = Mt_obsv.Json in
  let doc =
    match J.of_string (Util.read_file "BENCHMARK.json") with
    | Ok doc -> doc
    | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  in
  let field key m = Option.get (Option.bind (J.member key m) J.to_str) in
  List.map
    (fun m -> (field "name" m, field "unit" m))
    (Option.get (Option.bind (J.member section doc) J.to_list))

let () =
  let (run, run_traced), seed, seconds, trace = arguments () in
  Util.rm_rf Util.work_root;
  Util.mkdir_p Util.work_root;
  let { Util.ledger; metrics } =
    (if trace then run_traced else run) ~seed ~seconds
  in
  let ok_ratio =
    let { Util.failed; attempted; _ } = ledger in
    1. -. (float_of_int failed /. float_of_int (max 1 attempted))
  in
  let metrics = if trace then metrics else metrics @ [ ("ok_ratio", ok_ratio) ] in
  let value name =
    match List.assoc_opt name metrics with
    | Some v -> v
    | None when trace -> 0.
    | None -> failwith ("no value for end-to-end metric " ^ name)
  in
  let listed = declared (if trace then "per_layer" else "end_to_end") in
  List.iter
    (fun (name, v) ->
      if not (List.mem_assoc name listed) then
        Printf.eprintf "perfbench: undeclared metric %s = %.6g\n%!" name v)
    metrics;
  let module J = Mt_obsv.Json in
  let line =
    J.Obj
      [
        ("correct", J.Bool ledger.Util.correct);
        ("attempted", J.Num (float_of_int ledger.Util.attempted));
        ("failed", J.Num (float_of_int ledger.Util.failed));
        ( "metrics",
          J.Obj
            (List.map
               (fun (name, unit) ->
                 (name, J.Obj [ ("value", J.Num (value name)); ("unit", J.Str unit) ]))
               listed) );
      ]
  in
  print_endline (J.to_string line);
  exit (if ledger.Util.correct then 0 else 1)
