exception Syntax_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt

let reg_of_name s =
  match Reg.of_name s with
  | Some r -> r
  | None -> fail "unknown register %S" s

(* Split a memory operand "disp(base,index,scale)" into parts. *)
let parse_mem s =
  let lparen =
    match String.index_opt s '(' with
    | Some i -> i
    | None -> fail "memory operand %S has no '('" s
  in
  if s.[String.length s - 1] <> ')' then fail "memory operand %S has no ')'" s;
  let disp_str = String.trim (String.sub s 0 lparen) in
  let disp =
    if disp_str = "" then 0
    else
      match int_of_string_opt disp_str with
      | Some d -> d
      | None -> fail "bad displacement %S" disp_str
  in
  let inner = String.sub s (lparen + 1) (String.length s - lparen - 2) in
  let parts = String.split_on_char ',' inner |> List.map String.trim in
  match parts with
  | [ base ] -> Operand.mem ~base:(reg_of_name base) ~disp ()
  | [ base; index ] ->
    let op = if base = "" then Operand.mem ~index:(reg_of_name index) ~disp ()
      else Operand.mem ~base:(reg_of_name base) ~index:(reg_of_name index) ~disp () in
    op
  | [ base; index; scale ] ->
    let scale =
      match int_of_string_opt scale with
      | Some k -> k
      | None -> fail "bad scale %S" scale
    in
    if base = "" then Operand.mem ~index:(reg_of_name index) ~scale ~disp ()
    else Operand.mem ~base:(reg_of_name base) ~index:(reg_of_name index) ~scale ~disp ()
  | _ -> fail "malformed memory operand %S" s

let parse_operand s =
  let s = String.trim s in
  if s = "" then fail "empty operand"
  else if s.[0] = '$' then begin
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n -> Operand.imm n
    | None -> fail "bad immediate %S" s
  end
  else if s.[0] = '%' then Operand.reg (reg_of_name s)
  else if String.contains s '(' then parse_mem s
  else Operand.label s

(* Split operand text on commas that are not inside parentheses. *)
let split_operands s =
  let parts = ref [] in
  let depth = ref 0 in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      match c with
      | '(' -> incr depth
      | ')' -> decr depth
      | ',' when !depth = 0 ->
        parts := String.sub s !start (i - !start) :: !parts;
        start := i + 1
      | _ -> ())
    s;
  parts := String.sub s !start (String.length s - !start) :: !parts;
  List.rev_map String.trim !parts

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line, None
  | Some i ->
    ( String.sub line 0 i,
      Some (String.trim (String.sub line (i + 1) (String.length line - i - 1))) )

let parse_line line =
  let code, comment = strip_comment line in
  let code = String.trim code in
  if code = "" then
    match comment with None -> None | Some c -> Some (Insn.Comment c)
  else if code.[String.length code - 1] = ':' then
    Some (Insn.Label (String.sub code 0 (String.length code - 1)))
  else if code.[0] = '.' then Some (Insn.Directive code)
  else begin
    let mnemonic, rest =
      match String.index_opt code ' ' with
      | None -> code, ""
      | Some i ->
        String.sub code 0 i, String.trim (String.sub code i (String.length code - i))
    in
    let mnemonic =
      match String.index_opt mnemonic '\t' with
      | None -> mnemonic
      | Some i -> String.sub mnemonic 0 i
    in
    match Insn.opcode_of_mnemonic mnemonic with
    | None -> fail "unknown mnemonic %S" mnemonic
    | Some op ->
      let operands = if rest = "" then [] else List.map parse_operand (split_operands rest) in
      let insn = Insn.make op operands in
      (match Semantics.validate insn with
      | Ok () -> Some (Insn.Insn insn)
      | Error msg -> fail "%s" msg)
  end

let parse_program text =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun idx line ->
         try match parse_line line with None -> [] | Some item -> [ item ]
         with Syntax_error msg -> fail "line %d: %s" (idx + 1) msg)
       lines)

let parse_file path =
  match Mt_durable.read path with
  | Ok text -> parse_program text
  | Error msg -> raise (Sys_error msg)
