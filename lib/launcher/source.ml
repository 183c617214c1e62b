open Mt_isa
open Mt_creator

type t =
  | From_variant of Variant.t
  | From_program of Insn.program * Abi.t
  | From_assembly_text of string
  | From_file of string
  | From_object of string * string option

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* "key=value" fields of an "abi:" comment. *)
let fields_of_line line =
  String.split_on_char ' ' line
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | None -> None
         | Some i ->
           Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))

let parse_abi_comments program =
  let abi_line = ref None in
  let arrays = ref [] in
  List.iter
    (function
      | Insn.Comment c ->
        let c = String.trim c in
        if String.length c >= 4 && String.sub c 0 4 = "abi:" then
          abi_line := Some (String.sub c 4 (String.length c - 4))
        else if String.length c >= 10 && String.sub c 0 10 = "abi-array:" then begin
          match
            String.split_on_char ' '
              (String.trim (String.sub c 10 (String.length c - 10)))
          with
          | [ reg; step ] -> arrays := (reg, step) :: !arrays
          | _ -> ()
        end
      | Insn.Insn _ | Insn.Label _ | Insn.Directive _ -> ())
    program;
  match !abi_line with
  | None -> err "no \"# abi:\" header found (not a MicroCreator listing?)"
  | Some line -> (
    let fields = fields_of_line line in
    let get k = List.assoc_opt k fields in
    let get_int k = Option.bind (get k) int_of_string_opt in
    let get_reg k =
      Option.bind (get k) (fun name -> Reg.of_name name)
    in
    match get "function", get_reg "counter", get_int "step", get_int "unroll" with
    | Some fn, Some counter, Some step, Some unroll ->
      let pointers =
        List.rev_map
          (fun (reg, step) ->
            match Reg.of_name reg, int_of_string_opt step with
            | Some r, Some s -> (r, s)
            | _ -> (Reg.gpr64 Reg.RSI, 0))
          !arrays
      in
      Ok
        {
          Abi.function_name = fn;
          counter;
          counter_step = step;
          pointers;
          pass_counter = get_reg "passctr";
          unroll;
          loads_per_pass = Option.value ~default:0 (get_int "loads");
          stores_per_pass = Option.value ~default:0 (get_int "stores");
          bytes_per_pass = Option.value ~default:0 (get_int "bytes");
        }
    | _ -> err "incomplete abi header: %s" line)

let replace_all s pattern repl =
  let plen = String.length pattern in
  if plen = 0 then s
  else begin
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    while !i <= String.length s - plen do
      if String.sub s !i plen = pattern then begin
        Buffer.add_string b repl;
        i := !i + plen
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.add_string b (String.sub s !i (String.length s - !i));
    Buffer.contents b
  end

(* A MicroCreator .c kernel: the instructions live in the extended-asm
   string literals ("insn\n\t" with %% escapes) and the launcher
   contract in "/* abi: ... */" comments.  We translate both back into
   a listing and reuse the assembly path. *)
let parse_c_source text =
  let buf = Buffer.create 256 in
  (* abi comments -> '#' comments the Att reader keeps. *)
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      let line = String.trim line in
      let has_prefix p =
        String.length line >= String.length p && String.sub line 0 (String.length p) = p
      in
      if has_prefix "/* abi" then begin
        (* "/* abi: ... */" -> "# abi: ..." *)
        let inner = String.sub line 2 (String.length line - 4) in
        Buffer.add_string buf ("# " ^ String.trim inner ^ "\n")
      end
      else if String.length line >= 1 && line.[0] = '"' then begin
        (* A template string: strip quotes, \n\t escapes, %% -> %.
           Constraint strings ("=a", "r", "memory") carry no \n\t
           terminator and are skipped. *)
        match String.rindex_opt line '"' with
        | Some close when close > 0 ->
          let body = String.sub line 1 (close - 1) in
          let stripped = replace_all body "\\n\\t" "" in
          if stripped <> body then begin
            let code = replace_all stripped "%%" "%" in
            Buffer.add_string buf (code ^ "\n")
          end
        | Some _ | None -> ()
      end)
    lines;
  match Att.parse_program (Buffer.contents buf) with
  | exception Att.Syntax_error msg -> Error msg
  | program -> Result.map (fun abi -> (program, abi)) (parse_abi_comments program)

let contains_substring haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let load_c_text text =
  (* MicroCreator's own C output carries its kernel as inline assembly;
     anything else goes through the C-subset compiler (Section 4.1:
     the launcher "compiles the kernel code"). *)
  if contains_substring text "__asm__" then parse_c_source text
  else Mt_cc.Codegen.compile text

let object_root path =
  match Mt_xml.parse_file path with
  | exception Mt_xml.Parse_error msg -> Error msg
  | exception Sys_error msg -> Error msg
  | root ->
    if root.Mt_xml.tag <> "object" then
      err "%s: not an object container (root <%s>)" path root.Mt_xml.tag
    else Ok root

let object_functions path =
  Result.map
    (fun root ->
      List.filter_map
        (fun (e : Mt_xml.element) -> Mt_xml.attribute e "name")
        (Mt_xml.find_children root "function"))
    (object_root path)

let load_object path function_name =
  match object_root path with
  | Error msg -> Error msg
  | Ok root -> (
    let functions = Mt_xml.find_children root "function" in
    let chosen =
      match function_name with
      | Some name ->
        List.find_opt (fun e -> Mt_xml.attribute e "name" = Some name) functions
      | None -> ( match functions with [ one ] -> Some one | _ -> None)
    in
    match chosen with
    | None -> (
      match function_name with
      | Some name ->
        err "%s: no function %S (available: %s)" path name
          (String.concat ", "
             (List.filter_map (fun e -> Mt_xml.attribute e "name") functions))
      | None ->
        err "%s: container holds %d functions; pick one with --function" path
          (List.length functions))
    | Some e -> (
      let text = Mt_xml.text_content e in
      match Att.parse_program text with
      | exception Att.Syntax_error msg -> Error msg
      | program ->
        Result.map (fun abi -> (program, abi)) (parse_abi_comments program)))

let load = function
  | From_program (program, abi) -> Ok (program, abi)
  | From_variant v -> (
    match v.Variant.abi with
    | Some abi -> Ok (Variant.concrete_body v, abi)
    | None -> err "variant %s has no ABI (pipeline did not reach finalize-abi)" (Variant.id v))
  | From_assembly_text text -> (
    match Att.parse_program text with
    | exception Att.Syntax_error msg -> Error msg
    | program ->
      Result.map (fun abi -> (program, abi)) (parse_abi_comments program))
  | From_object (path, function_name) -> load_object path function_name
  | From_file path -> (
    if Filename.check_suffix path ".mto" then load_object path None
    else if Filename.check_suffix path ".c" then
      Result.bind (Mt_durable.read path) load_c_text
    else
      match Att.parse_file path with
      | exception Att.Syntax_error msg -> Error msg
      | exception Sys_error msg -> Error msg
      | program ->
        Result.map (fun abi -> (program, abi)) (parse_abi_comments program))
