(* MicroCreator command line: XML kernel description in, one benchmark
   program per variant out. *)

open Cmdliner

let generate input out_dir language max_variants random_selection seed list_passes check =
  if list_passes then begin
    List.iter
      (fun name ->
        let pass = Mt_creator.Passes.find_pass name in
        Printf.printf "%-24s %s\n" name pass.Mt_creator.Pass.description)
      Mt_creator.Passes.pass_names;
    0
  end
  else if check then begin
    match input with
    | None ->
      prerr_endline "microcreator: --check needs a DESCRIPTION file";
      2
    | Some input -> (
      match Mt_creator.Description.of_file input with
      | Ok spec ->
        Printf.printf "%s: valid kernel description (%d instructions, unroll %d..%d)\n"
          input
          (Mt_creator.Spec.instruction_count spec)
          spec.Mt_creator.Spec.unroll_min spec.Mt_creator.Spec.unroll_max;
        0
      | Error msg ->
        Printf.eprintf "%s: %s\n" input msg;
        1)
  end
  else
    match input with
    | None ->
      prerr_endline "microcreator: a DESCRIPTION file is required (see --help)";
      2
    | Some input -> (
      let ctx =
        {
          Mt_creator.Pass.max_variants;
          random_selection;
          seed;
        }
      in
      if language = "obj" then begin
        match Mt_creator.Creator.generate_from_file ~ctx input with
        | Ok variants ->
          Mt_durable.mkdir_p out_dir;
          let path = Filename.concat out_dir (Filename.remove_extension (Filename.basename input) ^ ".mto") in
          Mt_creator.Emit.write_object ~path variants;
          Printf.printf "bundled %d functions into %s\n" (List.length variants) path;
          0
        | Error msg ->
          Printf.eprintf "microcreator: %s\n" msg;
          1
      end
      else begin
        let language = if language = "c" then `C else `Assembly in
        match Mt_creator.Creator.generate_to_dir ~ctx ~language ~dir:out_dir input with
        | Ok paths ->
          Printf.printf "generated %d programs in %s\n" (List.length paths) out_dir;
          0
        | Error msg ->
          Printf.eprintf "microcreator: %s\n" msg;
          1
      end)

let input_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"DESCRIPTION" ~doc:"XML kernel description file.")

let out_arg =
  Arg.(value & opt string "generated" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")

let lang_arg =
  Arg.(value & opt (enum [ ("asm", "asm"); ("c", "c"); ("obj", "obj") ]) "asm"
       & info [ "language" ] ~doc:"Output: asm or c files, or one obj container (.mto).")

let max_arg =
  Arg.(value & opt int 100_000 & info [ "max-variants" ] ~doc:"Cap the generated population after each pass.")

let random_arg =
  Arg.(value & opt (some int) None & info [ "random-selection" ] ~docv:"K" ~doc:"Sample at most $(docv) choices per choice point instead of enumerating.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random-selection seed.")

let list_passes_arg =
  Arg.(value & flag & info [ "list-passes" ] ~doc:"Print the pass pipeline and exit.")

let check_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"Validate the description and exit without generating.")

let cmd =
  let doc = "generate micro-benchmark program variants from an XML description" in
  Cmd.v (Cmd.info "microcreator" ~doc)
    Term.(
      const generate $ input_arg $ out_arg $ lang_arg $ max_arg $ random_arg
      $ seed_arg $ list_passes_arg $ check_arg)

let () = exit (Cmd.eval' cmd)
