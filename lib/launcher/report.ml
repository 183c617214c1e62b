type t = {
  id : string;
  mode : string;
  unit_label : string;
  per_label : string;
  experiments : float array;
  value : float;
  summary : Mt_stats.summary;
  passes_per_call : int;
  calls_per_experiment : int;
  mem : Mt_machine.Memory.counters option;
  overhead_exceeded : bool;
  quality : Mt_quality.assessment;
  profile : Mt_profile.breakdown option;
}

let make ~id ~mode ~unit_label ~per_label ?(passes_per_call = 0)
    ?(calls_per_experiment = 0) ?(overhead_exceeded = false) ?mem ?thresholds
    ?quality_seed ?profile experiments =
  if Array.length experiments = 0 then
    invalid_arg "Report.make: no experiment values";
  let summary = Mt_stats.summarize experiments in
  let quality = Mt_quality.assess ?thresholds ?seed:quality_seed experiments in
  {
    id;
    mode;
    unit_label;
    per_label;
    experiments;
    value = summary.Mt_stats.median;
    summary;
    passes_per_call;
    calls_per_experiment;
    mem;
    overhead_exceeded;
    quality;
    profile;
  }

(* Only actionable signals make the flags cell: [unstable] (the series
   is not a measurement) and [outliers=N] (specific experiments to look
   at).  A bare "noisy" verdict stays out — it already colours the
   verdict column and would train readers to ignore flags. *)
let flags_cell r =
  let q = r.quality in
  let flags =
    (if r.overhead_exceeded then [ "overhead-exceeds-measurement" ] else [])
    @ (match q.Mt_quality.verdict with
      | Mt_quality.Unstable _ -> [ "unstable" ]
      | Mt_quality.Stable | Mt_quality.Noisy _ -> [])
    @
    if q.Mt_quality.outliers > 0 then
      [ Printf.sprintf "outliers=%d" q.Mt_quality.outliers ]
    else []
  in
  String.concat ";" flags

(* Quarantine is a launch-level fate, not a measurement signal: a
   quarantined variant never produced a [t], so the study CSV formats
   its flag here, beside the rest of the flag vocabulary. *)
let quarantine_flag ~kind = "quarantined:" ^ kind

let csv ?(full = false) reports =
  let max_experiments =
    List.fold_left (fun acc r -> max acc (Array.length r.experiments)) 0 reports
  in
  let header =
    [ "id"; "mode"; "unit"; "per"; "value"; "min"; "median"; "max"; "stddev";
      "experiments"; "passes_per_call"; "flags"; "cov"; "rciw"; "verdict" ]
    @ (if full then List.init max_experiments (fun i -> Printf.sprintf "run%d" i) else [])
  in
  let doc = Mt_stats.Csv.create ~header in
  List.iter
    (fun r ->
      let s = r.summary in
      let q = r.quality in
      let row =
        [
          r.id; r.mode; r.unit_label; r.per_label;
          Printf.sprintf "%.6g" r.value;
          Printf.sprintf "%.6g" s.Mt_stats.minimum;
          Printf.sprintf "%.6g" s.Mt_stats.median;
          Printf.sprintf "%.6g" s.Mt_stats.maximum;
          Printf.sprintf "%.6g" s.Mt_stats.stddev;
          string_of_int s.Mt_stats.count;
          string_of_int r.passes_per_call;
          flags_cell r;
          Printf.sprintf "%.6g" q.Mt_quality.cov;
          Printf.sprintf "%.6g" q.Mt_quality.rciw;
          Mt_quality.verdict_to_string q.Mt_quality.verdict;
        ]
        @
        if full then
          List.init max_experiments (fun i ->
              if i < Array.length r.experiments then
                Printf.sprintf "%.6g" r.experiments.(i)
              else "")
        else []
      in
      Mt_stats.Csv.add_row doc row)
    reports;
  doc

let save_csv ?full reports path =
  Mt_durable.write path (Mt_stats.Csv.to_string (csv ?full reports))

let pp fmt r =
  Format.fprintf fmt "%s [%s] %.3f %s/%s (min %.3f, max %.3f, n=%d)%s%s" r.id
    r.mode r.value r.unit_label r.per_label r.summary.Mt_stats.minimum
    r.summary.Mt_stats.maximum r.summary.Mt_stats.count
    (if r.overhead_exceeded then " [overhead exceeds measurement]" else "")
    (match r.quality.Mt_quality.verdict with
    | Mt_quality.Stable -> ""
    | v -> Printf.sprintf " [%s]" (Mt_quality.verdict_to_string v))
