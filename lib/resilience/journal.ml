open Mt_obsv

(* The hex codec over Mt_durable's JSON-lines appender: values are
   hex-encoded so arbitrary Marshal bytes survive the JSON string
   round-trip. *)

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  if String.length s mod 2 <> 0 then None
  else
    try
      Some
        (String.init
           (String.length s / 2)
           (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with Failure _ | Invalid_argument _ -> None

type entry = { key : string; id : string; data : string }

type writer = Mt_durable.Jsonl.t

let create ?append path = Mt_durable.Jsonl.open_ ?append path

let path = Mt_durable.Jsonl.path

let record w ~key ~id ~data =
  Mt_durable.Jsonl.add w
    (Json.to_string
       (Json.Obj
          [ ("key", Json.Str key); ("id", Json.Str id); ("data", Json.Str (to_hex data)) ]));
  Mt_telemetry.incr (Mt_telemetry.global ()) "resilience.resume.recorded"

let close = Mt_durable.Jsonl.close

let entry_of_line line =
  match Json.of_string line with
  | Error _ -> None
  | Ok json ->
    let str name = Option.bind (Json.member name json) Json.to_str in
    (match (str "key", str "id", str "data") with
    | Some key, Some id, Some hex ->
      Option.map (fun data -> { key; id; data }) (of_hex hex)
    | _ -> None)

let load path = Mt_durable.Jsonl.load path entry_of_line

let find entries ~key =
  (* Last record wins, matching the append-only write order. *)
  List.fold_left (fun acc e -> if e.key = key then Some e else acc) None entries
