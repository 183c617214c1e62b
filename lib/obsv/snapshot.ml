(* 2: per-variant measurement-quality block (rciw, outliers,
   warmup_trend, verdict).  Schema-1 documents load with quality
   defaults (no signal: Stable, all metrics 0).
   3: top-level "quarantined" key list — variants the resilience
   supervisor gave up on (they carry no stats).  Older documents load
   with an empty list.
   4: per-variant "profile" object — normalized bottleneck-category
   cycle shares from the attribution profiler.  Older documents load
   with an empty profile. *)
let schema_version = 4

type variant_stat = {
  key : string;
  unroll : int;
  median : float;
  mean : float;
  stddev : float;
  cov : float;
  count : int;
  minimum : float;
  maximum : float;
  unit_label : string;
  per_label : string;
  rciw : float;
  outliers : int;
  warmup_trend : bool;
  verdict : Mt_quality.verdict;
  profile : (string * float) list;
}

type t = {
  schema : int;
  tool : string;
  created_at : float;
  kernel_name : string;
  kernel_hash : string;
  machine_name : string;
  machine_hash : string;
  options : (string * string) list;
  seed : int;
  variant_count : int;
  variants : variant_stat list;
  quarantined : string list;
  counters : (string * int) list;
}

let of_values ~key ?(unroll = 0) ?(unit_label = "value") ?(per_label = "point")
    ?thresholds ?seed ?(profile = []) values =
  let s = Mt_stats.summarize values in
  let q = Mt_quality.assess ?thresholds ?seed values in
  {
    key;
    unroll;
    median = s.Mt_stats.median;
    mean = s.Mt_stats.mean;
    stddev = s.Mt_stats.stddev;
    cov = q.Mt_quality.cov;
    count = s.Mt_stats.count;
    minimum = s.Mt_stats.minimum;
    maximum = s.Mt_stats.maximum;
    unit_label;
    per_label;
    rciw = q.Mt_quality.rciw;
    outliers = q.Mt_quality.outliers;
    warmup_trend = q.Mt_quality.warmup_trend;
    verdict = q.Mt_quality.verdict;
    profile;
  }

let point_stat ~key value = of_values ~key [| value |]

let make ?(tool = "microtools") ?created_at ~kernel:(kernel_name, kernel_hash)
    ~machine:(machine_name, machine_hash) ?(options = []) ?(seed = 0)
    ?variant_count ?(quarantined = []) ?(counters = []) variants =
  {
    schema = schema_version;
    tool;
    created_at =
      (match created_at with Some t -> t | None -> Unix.gettimeofday ());
    kernel_name;
    kernel_hash;
    machine_name;
    machine_hash;
    options;
    seed;
    variant_count =
      (match variant_count with Some n -> n | None -> List.length variants);
    variants;
    quarantined;
    counters;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let variant_to_json v =
  Json.Obj
    ([
      ("key", Json.Str v.key);
      ("unroll", Json.Num (float_of_int v.unroll));
      ("median", Json.Num v.median);
      ("mean", Json.Num v.mean);
      ("stddev", Json.Num v.stddev);
      ("cov", Json.Num v.cov);
      ("count", Json.Num (float_of_int v.count));
      ("min", Json.Num v.minimum);
      ("max", Json.Num v.maximum);
      ("unit", Json.Str v.unit_label);
      ("per", Json.Str v.per_label);
      ("rciw", Json.Num v.rciw);
      ("outliers", Json.Num (float_of_int v.outliers));
      ("warmup_trend", Json.Bool v.warmup_trend);
      ("verdict", Json.Str (Mt_quality.verdict_to_string v.verdict));
    ]
    (* The profile object is emitted only when the run was profiled, so
       unprofiled schema-4 documents stay byte-compatible with their
       schema-3 shape apart from the version number. *)
    @
    if v.profile = [] then []
    else
      [
        ( "profile",
          Json.Obj (List.map (fun (k, s) -> (k, Json.Num s)) v.profile) );
      ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.Num (float_of_int t.schema));
      ("tool", Json.Str t.tool);
      ("created_at", Json.Num t.created_at);
      ( "kernel",
        Json.Obj [ ("name", Json.Str t.kernel_name); ("hash", Json.Str t.kernel_hash) ]
      );
      ( "machine",
        Json.Obj
          [ ("name", Json.Str t.machine_name); ("hash", Json.Str t.machine_hash) ] );
      ("options", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.options));
      ("seed", Json.Num (float_of_int t.seed));
      ("variant_count", Json.Num (float_of_int t.variant_count));
      ("variants", Json.List (List.map variant_to_json t.variants));
      ("quarantined", Json.List (List.map (fun k -> Json.Str k) t.quarantined));
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) t.counters) );
    ]

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let field name decode json =
  match Option.bind (Json.member name json) decode with
  | Some v -> Ok v
  | None -> err "snapshot: missing or malformed field %S" name

let opt_field name decode ~default json =
  match Json.member name json with
  | None -> Ok default
  | Some v -> (
    match decode v with
    | Some v -> Ok v
    | None -> err "snapshot: malformed field %S" name)

let variant_of_json json =
  let ( let* ) = Result.bind in
  let* key = field "key" Json.to_str json in
  let* unroll = opt_field "unroll" Json.to_int ~default:0 json in
  let* median = field "median" Json.to_float json in
  let* mean = opt_field "mean" Json.to_float ~default:median json in
  let* stddev = opt_field "stddev" Json.to_float ~default:0. json in
  let* cov = opt_field "cov" Json.to_float ~default:0. json in
  let* count = opt_field "count" Json.to_int ~default:1 json in
  let* minimum = opt_field "min" Json.to_float ~default:median json in
  let* maximum = opt_field "max" Json.to_float ~default:median json in
  let* unit_label = opt_field "unit" Json.to_str ~default:"value" json in
  let* per_label = opt_field "per" Json.to_str ~default:"point" json in
  (* Quality block: absent in schema-1 documents, which predate the
     verdicts — load them as "no signal", not "bad signal". *)
  let* rciw = opt_field "rciw" Json.to_float ~default:0. json in
  let* outliers = opt_field "outliers" Json.to_int ~default:0 json in
  let* warmup_trend = opt_field "warmup_trend" Json.to_bool ~default:false json in
  (* Profile vector: absent before schema 4 and in unprofiled runs —
     an empty profile simply means "no attribution recorded". *)
  let* profile =
    opt_field "profile"
      (fun v ->
        Option.map
          (List.filter_map (fun (k, v) ->
               Option.map (fun n -> (k, n)) (Json.to_float v)))
          (Json.to_obj v))
      ~default:[] json
  in
  let* verdict =
    match Json.member "verdict" json with
    | None -> Ok Mt_quality.Stable
    | Some v -> (
      match Json.to_str v with
      | None -> err "snapshot: malformed field %S" "verdict"
      | Some s -> (
        match Mt_quality.verdict_of_string s with
        | Ok v -> Ok v
        | Error msg -> err "snapshot: %s" msg))
  in
  Ok
    {
      key;
      unroll;
      median;
      mean;
      stddev;
      cov;
      count;
      minimum;
      maximum;
      unit_label;
      per_label;
      rciw;
      outliers;
      warmup_trend;
      verdict;
      profile;
    }

let str_alist name json =
  opt_field name
    (fun v ->
      Option.map
        (List.filter_map (fun (k, v) ->
             Option.map (fun s -> (k, s)) (Json.to_str v)))
        (Json.to_obj v))
    ~default:[] json

(* Forward as well as backward compatible: documents written by a
   *newer* schema load too — unknown fields (top-level and per-variant)
   are simply ignored, so an older binary can still read history
   archives a newer one has been appending to.  Fields this version
   knows keep their usual malformed-field errors; only genuinely
   unknown keys are skipped. *)
let of_json json =
  let ( let* ) = Result.bind in
  let* schema = field "schema" Json.to_int json in
  begin
    let* tool = opt_field "tool" Json.to_str ~default:"unknown" json in
    let* created_at = opt_field "created_at" Json.to_float ~default:0. json in
    let sub name part =
      opt_field name (fun v -> Option.bind (Json.member part v) Json.to_str)
        ~default:"" json
    in
    let* kernel_name = sub "kernel" "name" in
    let* kernel_hash = sub "kernel" "hash" in
    let* machine_name = sub "machine" "name" in
    let* machine_hash = sub "machine" "hash" in
    let* options = str_alist "options" json in
    let* seed = opt_field "seed" Json.to_int ~default:0 json in
    let* variant_json = field "variants" Json.to_list json in
    let* variants =
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          let* v = variant_of_json v in
          Ok (v :: acc))
        (Ok []) variant_json
    in
    let variants = List.rev variants in
    let* variant_count =
      opt_field "variant_count" Json.to_int ~default:(List.length variants) json
    in
    let* quarantined =
      opt_field "quarantined"
        (fun v -> Option.map (List.filter_map Json.to_str) (Json.to_list v))
        ~default:[] json
    in
    let* counters =
      opt_field "counters"
        (fun v ->
          Option.map
            (List.filter_map (fun (k, v) ->
                 Option.map (fun n -> (k, n)) (Json.to_int v)))
            (Json.to_obj v))
        ~default:[] json
    in
    Ok
      {
        schema;
        tool;
        created_at;
        kernel_name;
        kernel_hash;
        machine_name;
        machine_hash;
        options;
        seed;
        variant_count;
        variants;
        quarantined;
        counters;
      }
  end

let to_string t = Json.to_string ~indent:true (to_json t)

let of_string s =
  match Json.of_string s with
  | Error msg -> err "snapshot: %s" msg
  | Ok json -> of_json json

let save t path = Mt_durable.write path (to_string t)

let load path =
  match Mt_durable.read path with
  | Error msg -> err "%s" msg
  | Ok text -> (
    match of_string text with
    | Error msg -> err "%s: %s" path msg
    | Ok t -> Ok t)
