(* The traced runs replay the program's sequential launch through its
   public steps, one span per step, and log what the spans alone do not
   show: the raw experiment totals and the probe calls' instruction
   counts. *)

open Mt_launcher

type log = {
  mutable totals : float list list;  (* raw totals, one list per launch *)
  mutable probe_insns : int;  (* instructions over all probe calls *)
}

let log () = { totals = []; probe_insns = 0 }

(* [Launcher.run_sequential]: load, prepare, measure, report. *)
let launch_seq r ~req log opts variant =
  Spans.with_ r ~req "launcher.seq" (fun () ->
      let ( let* ) = Result.bind in
      let* program, abi = Source.load (Source.From_variant variant) in
      let* p =
        Spans.with_ r ~req "launcher.prepare" (fun () ->
            Protocol.prepare opts program abi)
      in
      let* totals, actual_passes =
        Spans.with_ r ~req "launcher.measure" (fun () -> Protocol.measure_totals p)
      in
      log.totals <- totals :: log.totals;
      let report =
        Spans.with_ r ~req "launcher.report" (fun () ->
            Protocol.report_of_totals ~mode:"seq" p ~actual_passes totals)
      in
      Ok (report, p))

(* One extra [Protocol.run_once] on a measured kernel, whose caches are
   as warm as the protocol left them: the per-call cost of the machine
   layer. *)
let probe r ~req log p =
  match Spans.with_ r ~req "machine.run_once" (fun () -> Protocol.run_once p) with
  | Ok o -> log.probe_insns <- log.probe_insns + o.Mt_machine.Core.instructions
  | Error msg -> failwith msg

let experiments log = List.fold_left (fun n t -> n + List.length t) 0 log.totals

(* The share of experiments whose raw total is bit-identical to the
   previous experiment's: the work an exact memo would skip. *)
let repeat_share log =
  let rec walk (repeats, pairs) = function
    | a :: (b :: _ as rest) ->
      let same = Int64.bits_of_float a = Int64.bits_of_float b in
      walk ((if same then repeats + 1 else repeats), pairs + 1) rest
    | [ _ ] | [] -> (repeats, pairs)
  in
  let repeats, pairs = List.fold_left walk (0, 0) log.totals in
  float_of_int repeats /. float_of_int (max 1 pairs)

(* Machine-layer metrics from the probe spans: median host time per
   call and simulated instructions per host second. *)
let machine_metrics r log =
  let probes = Spans.durations r "machine.run_once" in
  [
    ("machine.run_once_us", 1e6 *. Util.median probes);
    ("machine.mips", float_of_int log.probe_insns /. Util.sum probes /. 1e6);
    ("machine.repeat_total_ratio", repeat_share log);
  ]
