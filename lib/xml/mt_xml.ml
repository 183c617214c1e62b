type node = Element of element | Text of string

and element = {
  tag : string;
  attributes : (string * string) list;
  children : node list;
}

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Lexing state                                                        *)
(* ------------------------------------------------------------------ *)

type state = { src : string; mutable pos : int; mutable line : int; mutable bol : int }

let make_state src = { src; pos = 0; line = 1; bol = 0 }

let error st msg =
  let col = st.pos - st.bol + 1 in
  raise (Parse_error (Printf.sprintf "line %d, column %d: %s" st.line col msg))

let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let skip_ws st =
  while (not (eof st)) && (match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    advance st
  done

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then
    for _ = 1 to String.length s do advance st done
  else error st (Printf.sprintf "expected %S" s)

let skip_until st s =
  let n = String.length s in
  let rec loop () =
    if eof st then error st (Printf.sprintf "unterminated construct, expected %S" s)
    else if looking_at st s then for _ = 1 to n do advance st done
    else begin advance st; loop () end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Entities                                                            *)
(* ------------------------------------------------------------------ *)

let decode_entity st =
  (* Called with [pos] just after '&'.  Returns the decoded string. *)
  let start = st.pos in
  let rec find_semi () =
    if eof st then error st "unterminated entity"
    else if peek st = ';' then ()
    else begin advance st; find_semi () end
  in
  find_semi ();
  let name = String.sub st.src start (st.pos - start) in
  advance st;
  match name with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
    if String.length name > 1 && name.[0] = '#' then begin
      (* Malformed references (&#xZZ;, &#-5;, &#x110000;) must surface
         as positioned parse errors, never as an escaping Failure or
         Invalid_argument from int_of_string/Char.chr. *)
      let digits =
        if name.[1] = 'x' || name.[1] = 'X' then
          "0x" ^ String.sub name 2 (String.length name - 2)
        else String.sub name 1 (String.length name - 1)
      in
      let code =
        match int_of_string_opt digits with
        | Some c when c >= 0 && c <= 0x10FFFF -> c
        | Some _ | None ->
          error st (Printf.sprintf "bad character reference &%s;" name)
      in
      if code < 0x80 then String.make 1 (Char.chr code)
      else begin
        (* UTF-8 encode. *)
        let b = Buffer.create 4 in
        if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else if code < 0x10000 then begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end;
        Buffer.contents b
      end
    end
    else error st (Printf.sprintf "unknown entity &%s;" name)

(* ------------------------------------------------------------------ *)
(* Names, attributes                                                   *)
(* ------------------------------------------------------------------ *)

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let parse_name st =
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do advance st done;
  if st.pos = start then error st "expected a name";
  String.sub st.src start (st.pos - start)

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then error st "expected quoted attribute value";
  advance st;
  let b = Buffer.create 16 in
  let rec loop () =
    if eof st then error st "unterminated attribute value"
    else if peek st = quote then advance st
    else if peek st = '&' then begin
      advance st;
      Buffer.add_string b (decode_entity st);
      loop ()
    end
    else begin
      Buffer.add_char b (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  Buffer.contents b

let parse_attributes st =
  let rec loop acc =
    skip_ws st;
    match peek st with
    | '>' | '/' | '?' -> List.rev acc
    | _ ->
      let name = parse_name st in
      skip_ws st;
      expect st "=";
      skip_ws st;
      let value = parse_attr_value st in
      loop ((name, value) :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Elements                                                            *)
(* ------------------------------------------------------------------ *)

let rec skip_misc st =
  skip_ws st;
  if looking_at st "<?" then begin
    skip_until st "?>";
    skip_misc st
  end
  else if looking_at st "<!--" then begin
    skip_until st "-->";
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    skip_until st ">";
    skip_misc st
  end

let rec parse_element st =
  expect st "<";
  let tag = parse_name st in
  let attributes = parse_attributes st in
  skip_ws st;
  if looking_at st "/>" then begin
    expect st "/>";
    { tag; attributes; children = [] }
  end
  else begin
    expect st ">";
    let children = parse_children st tag in
    { tag; attributes; children }
  end

and parse_children st tag =
  let buf = Buffer.create 16 in
  let flush_text acc =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    (* Keep only text with non-whitespace content. *)
    if String.trim s = "" then acc else Text s :: acc
  in
  let rec loop acc =
    if eof st then error st (Printf.sprintf "unterminated element <%s>" tag)
    else if looking_at st "</" then begin
      let acc = flush_text acc in
      expect st "</";
      let close = parse_name st in
      skip_ws st;
      expect st ">";
      if close <> tag then
        error st (Printf.sprintf "mismatched closing tag </%s> for <%s>" close tag);
      List.rev acc
    end
    else if looking_at st "<!--" then begin
      skip_until st "-->";
      loop acc
    end
    else if looking_at st "<![CDATA[" then begin
      expect st "<![CDATA[";
      let start = st.pos in
      let rec find () =
        if eof st then error st "unterminated CDATA section"
        else if looking_at st "]]>" then ()
        else begin advance st; find () end
      in
      find ();
      Buffer.add_string buf (String.sub st.src start (st.pos - start));
      expect st "]]>";
      loop acc
    end
    else if peek st = '<' then begin
      let acc = flush_text acc in
      let child = parse_element st in
      loop (Element child :: acc)
    end
    else if peek st = '&' then begin
      advance st;
      Buffer.add_string buf (decode_entity st);
      loop acc
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop acc
    end
  in
  loop []

let parse_string s =
  let st = make_state s in
  skip_misc st;
  if eof st then error st "empty document";
  let root = parse_element st in
  skip_misc st;
  if not (eof st) then error st "trailing content after root element";
  root

let parse_file path =
  match Mt_durable.read path with
  | Ok s -> parse_string s
  | Error msg -> raise (Sys_error msg)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | '\'' -> Buffer.add_string b "&apos;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_string ?(indent = 2) root =
  let b = Buffer.create 256 in
  let pad depth = Buffer.add_string b (String.make (depth * indent) ' ') in
  let add_attrs attrs =
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=\"%s\"" k (escape v)))
      attrs
  in
  let rec go depth e =
    pad depth;
    Buffer.add_char b '<';
    Buffer.add_string b e.tag;
    add_attrs e.attributes;
    match e.children with
    | [] -> Buffer.add_string b "/>\n"
    | [ Text t ] ->
      Buffer.add_char b '>';
      Buffer.add_string b (escape t);
      Buffer.add_string b (Printf.sprintf "</%s>\n" e.tag)
    | children ->
      Buffer.add_string b ">\n";
      List.iter
        (function
          | Element child -> go (depth + 1) child
          | Text t ->
            pad (depth + 1);
            Buffer.add_string b (escape (String.trim t));
            Buffer.add_char b '\n')
        children;
      pad depth;
      Buffer.add_string b (Printf.sprintf "</%s>\n" e.tag)
  in
  go 0 root;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let children_elements e =
  List.filter_map (function Element c -> Some c | Text _ -> None) e.children

let find_children e tag = List.filter (fun c -> c.tag = tag) (children_elements e)

let find_child e tag =
  match find_children e tag with [] -> None | c :: _ -> Some c

let text_content e =
  let b = Buffer.create 16 in
  List.iter (function Text t -> Buffer.add_string b t | Element _ -> ()) e.children;
  String.trim (Buffer.contents b)

let attribute e name = List.assoc_opt name e.attributes

let child_text e tag = Option.map text_content (find_child e tag)

let child_int e tag =
  match child_text e tag with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> Some n
    | None ->
      raise (Parse_error (Printf.sprintf "element <%s> inside <%s>: %S is not an integer" tag e.tag s)))

let has_child e tag = find_child e tag <> None

let elem ?(attrs = []) tag children = { tag; attributes = attrs; children }

let text s = Text s

let elem_text tag s = { tag; attributes = []; children = [ Text s ] }
