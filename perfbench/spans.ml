(* The traced run's span recorder.  The benchmark wraps each call it
   makes into a layer's public API in a span: name, start, end, the
   enclosing span, and the request (variant or job) it serves.  Spans
   stay in memory and are written out once, when the run ends.  One
   recorder belongs to one thread, so nesting is a plain stack. *)

type span = {
  name : string;
  req : string;
  parent : int;  (* index into the recorder, -1 at top level *)
  tid : int;
  start : float;
  mutable stop : float;
}

type t = {
  tid : int;
  mutable spans : span list;  (* newest first *)
  mutable count : int;
  mutable open_ : int list;  (* indices of the enclosing spans *)
}

let create ~tid = { tid; spans = []; count = 0; open_ = [] }

let with_ t ?(req = "") name f =
  let index = t.count in
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let s = { name; req; parent; tid = t.tid; start = Util.now (); stop = nan } in
  t.spans <- s :: t.spans;
  t.count <- index + 1;
  t.open_ <- index :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Util.now ();
      t.open_ <- List.tl t.open_)
    f

let spans t = Array.of_list (List.rev t.spans)

let duration s = s.stop -. s.start

(* Total time of every span called [name], in seconds. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. t.spans

let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    t.spans

(* Self time: a span's duration minus the time its children cover.
   Children of one thread's span never overlap, so that is the sum of
   their durations. *)
let self_times t =
  let spans = spans t in
  let self = Array.map duration spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s)
    spans;
  Array.to_list (Array.mapi (fun i s -> (s, self.(i))) spans)

(* Chrome trace_event JSON (complete events, microseconds), loadable in
   Perfetto or chrome://tracing. *)
let write path recorders =
  let module J = Mt_obsv.Json in
  let event (s, self) =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("pid", J.Num 1.);
        ("tid", J.Num (float_of_int s.tid));
        ("ts", J.Num (s.start *. 1e6));
        ("dur", J.Num (duration s *. 1e6));
        ("args", J.Obj [ ("req", J.Str s.req); ("self_us", J.Num (self *. 1e6)) ]);
      ]
  in
  let events = List.concat_map (fun r -> List.map event (self_times r)) recorders in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (J.Obj [ ("traceEvents", J.List events) ])))
