(* exlc: the EXL compiler driver.

   Compiles an EXL program and emits a chosen artifact: the schema
   mapping in logic notation, SQL (plain or fused), DDL, R, Matlab, the
   Kettle XML catalog, the dependency graph, or the normalized program.

   Examples:
     exlc program.exl --emit tgds
     exlc program.exl --emit sql-fused
     exlc program.exl --emit kettle > job.xml *)

open Cmdliner

(* cmdliner's [Arg.file] accepts directories too; reading one raises
   Sys_error, so wrap drivers with [with_source]. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_source file k =
  match read_file file with
  | source -> k source
  | exception Sys_error msg ->
      prerr_endline ("error: cannot read " ^ file ^ ": " ^ msg);
      1

type emit =
  | Tgds
  | Sql
  | Sql_fused
  | Ddl
  | R
  | Matlab
  | Kettle
  | Dot
  | Normalized
  | Check

let emit_conv =
  Arg.enum
    [
      ("tgds", Tgds);
      ("sql", Sql);
      ("sql-fused", Sql_fused);
      ("ddl", Ddl);
      ("r", R);
      ("matlab", Matlab);
      ("kettle", Kettle);
      ("dot", Dot);
      ("normalized", Normalized);
      ("check", Check);
    ]

let dot_of_program source =
  let d = Engine.Determination.create () in
  match Engine.Determination.register_source d ~name:"main" source with
  | Ok () -> Ok (Engine.Determination.dot d)
  | Error msg -> Error msg

(* --out DIR: write every artifact at once (what EXLEngine would stage
   for the target systems). *)
let write_bundle dir program source =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  (* [close_out] on success: a failed final flush (a full disk) raises
     [Sys_error] there, which [close_out_noerr] would swallow. *)
  let write name content =
    let path = Filename.concat dir name in
    let oc = open_out path in
    (match output_string oc content with
    | () -> close_out oc
    | exception e ->
        close_out_noerr oc;
        raise e);
    Printf.printf "wrote %s\n" path
  in
  (* one mapping, generated once, for every translator *)
  let mapping = Core.mapping_of program in
  let of_mapping f = Result.bind mapping f in
  let artifacts =
    [
      ("mapping.tgds", of_mapping Core.tgds_of_mapping);
      ("schema.sql", of_mapping Core.ddl_of_mapping);
      ("program.sql", of_mapping (Core.sql_of_mapping ~fused:true));
      ("program.r", of_mapping Core.r_of_mapping);
      ("program.m", of_mapping Core.matlab_of_mapping);
      ("job.kettle.xml", of_mapping Core.kettle_of_mapping);
      ("graph.dot", dot_of_program source);
    ]
  in
  let rec loop = function
    | [] -> 0
    | (name, Ok content) :: rest -> (
        match write name content with
        | () -> loop rest
        | exception Sys_error msg ->
            prerr_endline ("error: " ^ msg);
            1)
    | (name, Error msg) :: _ ->
        prerr_endline ("error generating " ^ name ^ ": " ^ msg);
        1
  in
  loop artifacts

let run file emit out_dir =
  with_source file @@ fun source ->
  match Exl.Program.load source with
  | Error e ->
      prerr_endline
        ("error: " ^ Exl.Errors.to_string_with_source ~source e);
      1
  | Ok program when out_dir <> None -> write_bundle (Option.get out_dir) program source
  | Ok program -> (
      let output =
        match emit with
        | Check ->
            let warnings = Exl.Typecheck.warnings program in
            Ok
              ("program is well-typed\n"
              ^ String.concat ""
                  (List.map (fun w -> "warning: " ^ w ^ "\n") warnings))
        | Tgds -> Core.tgds_of program
        | Sql -> Core.sql_of ~fused:false program
        | Sql_fused -> Core.sql_of ~fused:true program
        | Ddl -> Core.ddl_of program
        | R -> Core.r_of program
        | Matlab -> Core.matlab_of program
        | Kettle -> Core.kettle_of program
        | Dot -> dot_of_program source
        | Normalized ->
            Result.map
              (fun (c : Exl.Typecheck.checked) ->
                Exl.Pretty.program_to_string c.Exl.Typecheck.program)
              (Result.map_error Exl.Errors.to_string
                 (Exl.Normalize.checked program))
      in
      match output with
      | Ok text ->
          print_string text;
          0
      | Error msg ->
          prerr_endline ("error: " ^ msg);
          1)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"EXL program file.")

let emit_arg =
  Arg.(
    value
    & opt emit_conv Tgds
    & info [ "e"; "emit" ] ~docv:"KIND"
        ~doc:
          "What to emit: $(b,tgds) (schema mapping, default), $(b,sql), \
           $(b,sql-fused), $(b,ddl), $(b,r), $(b,matlab), $(b,kettle), \
           $(b,dot), $(b,normalized) or $(b,check).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"DIR"
        ~doc:
          "Write every artifact (tgds, DDL, SQL, R, Matlab, Kettle XML, dot) \
           into $(docv).")

(* --- lint subcommand ------------------------------------------------ *)

type lint_format = Text | Json

let explain code =
  match Analysis.Diagnostic.description code with
  | Some text ->
      Printf.printf "%s: %s\n" code text;
      0
  | None ->
      Printf.eprintf "error: unknown diagnostic code %s (known: %s)\n" code
        (String.concat ", " Analysis.Diagnostic.known_codes);
      1

let lint file format deny_warnings suppress explain_code =
  match (explain_code, file) with
  | Some code, _ -> explain code
  | None, None ->
      prerr_endline "error: FILE is required unless --explain is given";
      1
  | None, Some file ->
      with_source file @@ fun source ->
      let report =
        Analysis.Lint.filter ~suppress (Analysis.Lint.source_diagnostics source)
      in
      (match format with
      | Text -> print_endline (Analysis.Lint.render_text ~source report)
      | Json -> print_endline (Analysis.Lint.render_json report));
      Analysis.Lint.exit_code ~deny_warnings report

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,text) (default) or $(b,json).")

let deny_warnings_arg =
  Arg.(
    value & flag
    & info [ "deny-warnings" ]
        ~doc:"Exit non-zero if any warning remains after suppression.")

let suppress_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "W"; "suppress" ] ~docv:"CODE"
        ~doc:
          "Suppress the warning $(docv) (e.g. $(b,-W W101)); repeatable. \
           Errors cannot be suppressed.")

let explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"CODE"
        ~doc:
          "Print the catalogue entry for the diagnostic $(docv) (e.g. \
           $(b,--explain W106)) and exit; no file is read.")

let opt_file_arg =
  Arg.(
    value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"EXL program file.")

let lint_cmd =
  let doc =
    "lint an EXL program: accumulate all type errors, run the EXL lints, the \
     mapping-level checks (tgd safety, weak acyclicity, egd consistency, \
     stratification) and report what the optimizer would do as I3xx notes"
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const lint $ opt_file_arg $ format_arg $ deny_warnings_arg $ suppress_arg
      $ explain_arg)

(* --- optimize subcommand -------------------------------------------- *)

let optimize file format fuse verify =
  with_source file @@ fun source ->
  let report = Analysis.Lint.source_diagnostics source in
  match report.Analysis.Lint.mapping with
  | None ->
      prerr_endline (Analysis.Lint.render_text ~source report);
      1
  | Some mapping -> (
      let opt =
        (* lint already ran the default (fusing) optimizer *)
        match report.Analysis.Lint.optimizer with
        | Some opt when fuse -> opt
        | _ -> Analysis.Optimize.run ~fuse mapping
      in
      (match format with
      | Json -> print_endline (Analysis.Optimize.report_to_json opt)
      | Text ->
          List.iter
            (fun d -> print_endline (Analysis.Diagnostic.to_string d))
            (Analysis.Optimize.diagnostics opt);
          Printf.printf
            "tgds: %d → %d; egds: %d → %d; est. matches: %d → %d\n"
            (List.length opt.Analysis.Optimize.original.Mappings.Mapping.t_tgds)
            (List.length opt.Analysis.Optimize.optimized.Mappings.Mapping.t_tgds)
            (List.length opt.Analysis.Optimize.original.Mappings.Mapping.egds)
            (List.length opt.Analysis.Optimize.optimized.Mappings.Mapping.egds)
            opt.Analysis.Optimize.est_before opt.Analysis.Optimize.est_after);
      if not verify then 0
      else
        match Analysis.Optimize.verify opt with
        | Ok () ->
            print_endline "all certificates verified";
            0
        | Error msg ->
            prerr_endline ("certificate verification failed: " ^ msg);
            1)

let fuse_arg =
  Arg.(
    value
    & opt (enum [ ("safe", true); ("off", false) ]) true
    & info [ "fuse" ] ~docv:"MODE"
        ~doc:
          "Fusion mode: $(b,safe) (default; cost-gated, every fusion proved \
           by unfolding or checked on the critical instance) or $(b,off).")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Re-validate every emitted certificate and replay the action log \
           onto the original mapping, which must give the optimized one; \
           only a fusion certified on the critical instance is checked \
           there again.  Non-zero exit on any failure.")

let report_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "report" ] ~docv:"FORMAT"
        ~doc:"Report format: $(b,text) (default) or $(b,json).")

let optimize_cmd =
  let doc =
    "run the exl-opt containment-based optimizer on a program's mapping: \
     minimize bodies, fuse temporaries under a cost \
     model, specialize dead outer-combine defaults and discharge implied \
     egds — every step carrying a machine-checkable certificate"
  in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const optimize $ file_arg $ report_arg $ fuse_arg $ verify_arg)

(* --- fuzz subcommand ------------------------------------------------- *)

let fuzz seed count profile axes fuse out_dir replays =
  let fail msg =
    prerr_endline ("error: " ^ msg);
    1
  in
  if Fuzz.Gen.profile_of_name profile = None then
    fail (Printf.sprintf "unknown profile %s (quick, deep or compat)" profile)
  else
    match replays with
    | _ :: _ ->
        (* replay checked-in repro files instead of running a campaign *)
        let failed = ref 0 in
        List.iter
          (fun file ->
            match Fuzz.Scenario.load file with
            | Error msg ->
                incr failed;
                Printf.eprintf "%s: cannot load: %s\n" file msg
            | Ok scenario ->
                List.iter
                  (fun (c : Fuzz.Harness.check) ->
                    let spec = Fuzz.Lattice.to_spec c.axis c.fuse in
                    match c.outcome with
                    | Fuzz.Harness.Agree ->
                        Printf.printf "%s: %s agrees\n" file spec
                    | Fuzz.Harness.Skip why ->
                        Printf.printf "%s: %s skipped (%s)\n" file spec why
                    | Fuzz.Harness.Disagree detail ->
                        incr failed;
                        Printf.printf "%s: %s DISAGREES: %s\n" file spec detail)
                  (Fuzz.Harness.replay scenario))
          replays;
        if !failed = 0 then 0 else 1
    | [] -> (
        let specs =
          List.map
            (fun spec ->
              match Fuzz.Lattice.of_spec spec with
              | Some parsed -> Ok parsed
              | None -> Error spec)
            axes
        in
        match List.find_opt Result.is_error specs with
        | Some (Error spec) -> fail ("unknown axis " ^ spec)
        | Some (Ok _) -> assert false
        | None ->
            let specs = List.filter_map Result.to_option specs in
            let axes =
              match specs with
              | [] -> Fuzz.Lattice.all
              | specs -> List.map fst specs
            in
            (* an --axes entry like fusion:unsafe selects the fuser too *)
            let fuse =
              List.fold_left
                (fun acc (axis, mode) ->
                  if axis = Fuzz.Lattice.Fusion && mode <> Fuzz.Lattice.Safe then
                    mode
                  else acc)
                fuse specs
            in
            let report =
              Fuzz.Driver.run ~progress:prerr_endline ~axes ~fuse ?out_dir
                ~profile ~seed ~count ()
            in
            print_string (Fuzz.Driver.summary report);
            if report.Fuzz.Driver.r_disagreements = [] then 0 else 1)

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N" ~doc:"First scenario seed (default 1).")

let count_arg =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N"
        ~doc:"Number of scenarios (consecutive seeds; default 100).")

let profile_arg =
  Arg.(
    value & opt string "quick"
    & info [ "profile" ] ~docv:"NAME"
        ~doc:
          "Generator profile: $(b,quick) (default; small data, compound \
           statements), $(b,deep) (longer programs, exotic literals) or \
           $(b,compat) (the historical test-suite distribution).")

let axes_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "axes" ] ~docv:"AXIS"
        ~doc:
          "Check only this axis (repeatable): $(b,roundtrip), $(b,lint), \
           $(b,backends), $(b,columnar), $(b,optimize), $(b,fusion) (or \
           $(b,fusion:unsafe), $(b,fusion:off)), $(b,incremental), \
           $(b,faults).  Default: all.")

let fuzz_fuse_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("safe", Fuzz.Lattice.Safe);
             ("unsafe", Fuzz.Lattice.Unsafe);
             ("off", Fuzz.Lattice.Off);
           ])
        Fuzz.Lattice.Safe
    & info [ "fuse" ] ~docv:"MODE"
        ~doc:
          "Fuser used by the fusion axis: $(b,safe) (default), $(b,unsafe) \
           (deliberately reintroduces the historical naive aggregation \
           fusion — the harness must catch and shrink it) or $(b,off).")

let fuzz_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Write a self-contained .repro file for every disagreement.")

let replay_arg =
  Arg.(
    value
    & opt_all file []
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay a .repro file (repeatable) on its recorded axes instead of \
           running a campaign.")

let fuzz_cmd =
  let doc =
    "differential scenario fuzzing: generate well-typed programs, data, \
     update batches and fault plans, run them through every engine \
     configuration (row/columnar, optimized, fused, incremental, faulted, \
     every backend) and diff the results; disagreements are shrunk to \
     minimal self-contained repro files"
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ seed_arg $ count_arg $ profile_arg $ axes_arg
      $ fuzz_fuse_arg $ fuzz_out_arg $ replay_arg)

let cmd =
  let doc = "compile EXL statistical programs into executable schema mappings" in
  Cmd.v
    (Cmd.info "exlc" ~version:"1.0" ~doc)
    Term.(const run $ file_arg $ emit_arg $ out_arg)

(* [exlc lint …] and [exlc optimize …] dispatch to their subcommands;
   anything else keeps the historical positional interface
   ([exlc file.exl --emit tgds]), which a command group would shadow. *)
let () =
  let argv = Sys.argv in
  let sub name command =
    let rest = Array.sub argv 2 (Array.length argv - 2) in
    exit (Cmd.eval' ~argv:(Array.append [| "exlc " ^ name |] rest) command)
  in
  if Array.length argv > 1 && argv.(1) = "lint" then sub "lint" lint_cmd
  else if Array.length argv > 1 && argv.(1) = "optimize" then
    sub "optimize" optimize_cmd
  else if Array.length argv > 1 && argv.(1) = "fuzz" then sub "fuzz" fuzz_cmd
  else exit (Cmd.eval' cmd)
