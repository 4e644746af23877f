(* exlrun: execute an EXL program against CSV data.

   Elementary cubes are read from <data-dir>/<CUBE>.csv (header row:
   dimension names then the measure name); derived cubes are written to
   <out-dir>/<CUBE>.csv.

   Examples:
     exlrun program.exl --data ./data --out ./results
     exlrun program.exl --data ./data --backend etl --verify *)

open Cmdliner
open Matrix

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [close_out] on success: a failed final flush (a full disk) raises
   [Sys_error] there, which [close_out_noerr] would swallow. *)
let write_channel path write =
  let oc = open_out path in
  match write oc with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e

let write_file path contents =
  write_channel path (fun oc -> output_string oc contents)

(* The Core back ends run the whole program on one engine; [engine] is
   the full EXLEngine facade — per-target dispatch with retry, fallback
   and quarantine (see docs/RELIABILITY.md). *)
type cli_backend = Core_backend of Core.backend | Engine_backend

let backend_conv =
  Arg.enum
    [
      ("reference", Core_backend Core.Reference);
      ("chase", Core_backend Core.Chase);
      ("sql", Core_backend Core.Sql);
      ("vector", Core_backend Core.Vector_engine);
      ("etl", Core_backend Core.Etl_engine);
      ("engine", Engine_backend);
    ]

let load_data data_dir (program : Core.program) =
  let registry = Registry.create () in
  let errors = ref [] in
  List.iter
    (fun schema ->
      let path = Filename.concat data_dir (schema.Schema.name ^ ".csv") in
      if Sys.file_exists path then
        match Csv.cube_of_string schema (read_file path) with
        | Ok cube -> Registry.add registry Registry.Elementary cube
        | Error msg -> errors := Printf.sprintf "%s: %s" path msg :: !errors
      else
        Printf.eprintf "warning: no data for elementary cube %s (%s missing)\n"
          schema.Schema.name path)
    (Exl.Typecheck.elementary_schemas program);
  if !errors = [] then Ok registry
  else Error (String.concat "\n" (List.rev !errors))

(* Write every derived cube; the exit code is 1 if a write failed. *)
let write_results out_dir (program : Core.program) result =
  (try Sys.mkdir out_dir 0o755 with _ -> ());
  match
    List.iter
      (fun schema ->
        let name = schema.Schema.name in
        if not (Exl.Normalize.is_temp name) then
          match Registry.find result name with
          | Some cube ->
              let path = Filename.concat out_dir (name ^ ".csv") in
              write_channel path (fun oc -> Csv.cube_to_channel oc cube);
              Printf.printf "wrote %s (%d tuples)\n" path
                (Cube.cardinality cube)
          | None -> ())
      (Exl.Typecheck.derived_schemas program)
  with
  | () -> 0
  | exception Sys_error msg ->
      prerr_endline ("error: " ^ msg);
      1

(* The EXLEngine facade path: dispatch per-target subgraphs with retry,
   fallback and quarantine.  A degraded run (quarantined or skipped
   cubes) still writes every cube it computed, prints the failure
   summary, and exits non-zero. *)
let run_engine ~source ~program ~registry ~out_dir ~overrides ~fault_plan
    ~max_attempts ~backoff ~timeout =
  let faults =
    match fault_plan with
    | None -> Ok None
    | Some path -> (
        match Engine.Faults.of_string (read_file path) with
        | Ok plan -> Ok (Some plan)
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  match faults with
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      1
  | Ok faults -> (
      let config =
        {
          Engine.Exlengine.default_config with
          policy = { Engine.Dispatcher.default_policy with overrides };
          retry =
            {
              Engine.Dispatcher.default_retry with
              max_attempts;
              base_backoff = backoff;
              subgraph_timeout = timeout;
            };
          faults;
        }
      in
      let engine = Engine.Exlengine.create ~config () in
      let loaded =
        match Engine.Exlengine.register_program engine ~name:"main" source with
        | Error _ as e -> e
        | Ok () ->
            List.fold_left
              (fun acc name ->
                match acc with
                | Error _ -> acc
                | Ok () ->
                    Engine.Exlengine.load_elementary engine
                      (Registry.find_exn registry name))
              (Ok ()) (Registry.names registry)
      in
      match loaded with
      | Error msg ->
          prerr_endline ("error: " ^ msg);
          1
      | Ok () -> (
          match Engine.Exlengine.recompute engine with
          | Error msg ->
              prerr_endline ("error: " ^ msg);
              1
          | Ok report ->
              let written =
                write_results out_dir program (Engine.Exlengine.store engine)
              in
              let summary = Engine.Dispatcher.failure_summary report in
              if summary <> "" then print_endline summary;
              if Engine.Dispatcher.degraded report then 1 else written))

let run_inner file data_dir out_dir backend verify overrides fault_plan
    max_attempts backoff timeout =
  let source = read_file file in
  match Exl.Program.load source with
  | Error e ->
      prerr_endline
        ("error: " ^ Exl.Errors.to_string_with_source ~source e);
      1
  | Ok program -> (
      match load_data data_dir program with
      | Error msg ->
          prerr_endline ("error: " ^ msg);
          1
      | Ok registry -> (
          match backend with
          | Engine_backend ->
              run_engine ~source ~program ~registry ~out_dir ~overrides
                ~fault_plan ~max_attempts ~backoff ~timeout
          | Core_backend backend -> (
          let verified =
            if verify then Core.verify_all_backends program registry
            else Ok ()
          in
          match verified with
          | Error msg ->
              prerr_endline ("verification failed:\n" ^ msg);
              1
          | Ok () -> (
              if verify then
                print_endline "verification: all back ends agree";
              match Core.run ~backend program registry with
              | Error msg ->
                  prerr_endline ("error: " ^ msg);
                  1
              | Ok result -> write_results out_dir program result))))

(* Observability wrapper: when any telemetry output is requested,
   install an ambient collector around the whole run, then export.
   [--normalize-times] zeroes timestamps/durations and suppresses the
   provenance wall-clock columns so outputs are byte-deterministic —
   what the golden tests diff. *)
let run file data_dir out_dir backend verify overrides fault_plan max_attempts
    backoff timeout trace_file metrics_file events_file provenance normalize =
  let wanted =
    trace_file <> None || metrics_file <> None || events_file <> None
    || provenance
  in
  if not wanted then
    run_inner file data_dir out_dir backend verify overrides fault_plan
      max_attempts backoff timeout
  else begin
    let c = Obs.create () in
    let code =
      Obs.with_collector c (fun () ->
          run_inner file data_dir out_dir backend verify overrides fault_plan
            max_attempts backoff timeout)
    in
    Option.iter
      (fun path -> write_file path (Obs.Export.chrome_trace ~normalize c.Obs.trace))
      trace_file;
    Option.iter
      (fun path -> write_file path (Obs.Export.prometheus c.Obs.metrics))
      metrics_file;
    Option.iter
      (fun path ->
        write_file path
          (Obs.Export.jsonl ~normalize c.Obs.trace c.Obs.metrics
             c.Obs.provenance))
      events_file;
    if provenance then
      print_string (Obs.Provenance.report ~timings:(not normalize) c.Obs.provenance);
    code
  end

(* [exlrun update]: recompute a baseline, then apply a batched revision
   file and propagate it incrementally through the determination DAG
   (docs/INCREMENTAL.md). *)
let run_update file data_dir updates_file out_dir =
  let source = read_file file in
  match Exl.Program.load source with
  | Error e ->
      prerr_endline ("error: " ^ Exl.Errors.to_string_with_source ~source e);
      1
  | Ok program -> (
      match load_data data_dir program with
      | Error msg ->
          prerr_endline ("error: " ^ msg);
          1
      | Ok registry -> (
          let engine = Engine.Exlengine.create () in
          let prepared =
            match Engine.Exlengine.register_program engine ~name:"main" source with
            | Error _ as e -> e
            | Ok () -> (
                let rec load = function
                  | [] -> Ok ()
                  | name :: rest -> (
                      match
                        Engine.Exlengine.load_elementary engine
                          (Registry.find_exn registry name)
                      with
                      | Ok () -> load rest
                      | Error _ as e -> e)
                in
                match load (Registry.names registry) with
                | Error _ as e -> e
                | Ok () -> (
                    match Engine.Exlengine.recompute engine with
                    | Error _ as e -> e
                    | Ok baseline -> (
                        (* Warm the solution cache so the batch below
                           propagates incrementally. *)
                        match Engine.Exlengine.warm engine with
                        | Error _ as e -> e
                        | Ok () -> Ok baseline)))
          in
          match prepared with
          | Error msg ->
              prerr_endline ("error: " ^ msg);
              1
          | Ok baseline -> (
              Printf.printf "baseline: recomputed %s\n"
                (String.concat " " baseline.Engine.Dispatcher.recomputed);
              let schema_of =
                Engine.Determination.schema
                  (Engine.Exlengine.determination engine)
              in
              match
                Engine.Update.of_string ~schema_of (read_file updates_file)
              with
              | Error msg ->
                  prerr_endline
                    (Printf.sprintf "error: %s: %s" updates_file msg);
                  1
              | Ok updates -> (
                  match Engine.Exlengine.apply_updates engine updates with
                  | Error msg ->
                      prerr_endline ("error: " ^ msg);
                      1
                  | Ok r ->
                      Printf.printf "updated: %s (%d fact(s) changed)\n"
                        (String.concat " " r.Engine.Exlengine.updated)
                        r.Engine.Exlengine.facts_changed;
                      Printf.printf "recomputed: %s\n"
                        (String.concat " " r.Engine.Exlengine.recomputed);
                      Printf.printf
                        "rederived %d of %d facts (strata: %d skipped, %d \
                         rederived)\n"
                        r.Engine.Exlengine.facts_rederived
                        r.Engine.Exlengine.total_facts
                        r.Engine.Exlengine.strata_skipped
                        r.Engine.Exlengine.strata_rederived;
                      write_results out_dir program
                        (Engine.Exlengine.store engine)))))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"EXL program file.")

let data_arg =
  Arg.(
    required
    & opt (some dir) None
    & info [ "d"; "data" ] ~docv:"DIR" ~doc:"Directory with <CUBE>.csv input files.")

let out_arg =
  Arg.(
    value & opt string "results"
    & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory (default: results).")

let backend_arg =
  Arg.(
    value
    & opt backend_conv (Core_backend Core.Reference)
    & info [ "b"; "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution back end: $(b,reference) (default), $(b,chase), $(b,sql), \
           $(b,vector), $(b,etl), or $(b,engine) for the full dispatcher with \
           retry, target fallback and quarantine.")

let override_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string string) []
    & info [ "override" ] ~docv:"CUBE=TARGET"
        ~doc:
          "Pin a cube to a target system (repeatable; $(b,engine) back end \
           only).")

let fault_plan_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "fault-plan" ] ~docv:"FILE"
        ~doc:
          "Inject deterministic failures from a fault-plan file (see \
           docs/RELIABILITY.md; $(b,engine) back end only).")

let max_attempts_arg =
  Arg.(
    value & opt int 3
    & info [ "max-attempts" ] ~docv:"N"
        ~doc:"Attempts per dispatch step before falling back ($(b,engine)).")

let backoff_arg =
  Arg.(
    value & opt float 0.01
    & info [ "backoff" ] ~docv:"SECONDS"
        ~doc:"Base retry backoff; 0 disables waiting ($(b,engine)).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget per subgraph execution ($(b,engine)).")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"Run all back ends and check they produce identical cubes first.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome-trace JSON of the run (hierarchical spans, one \
           lane per domain) to $(docv); load it in Perfetto or \
           chrome://tracing.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write run counters, gauges and histograms in Prometheus text \
           format to $(docv).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Write the full event log (spans, metrics, provenance) as JSON \
           Lines to $(docv).")

let provenance_arg =
  Arg.(
    value & flag
    & info [ "provenance" ]
        ~doc:
          "Print the run provenance report: which tgds, target engine, \
           dispatch wave and attempt count produced each output cube.")

let normalize_arg =
  Arg.(
    value & flag
    & info [ "normalize-times" ]
        ~doc:
          "Zero all timestamps and durations in telemetry outputs (for \
           byte-deterministic golden tests).")

let updates_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "u"; "updates" ] ~docv:"FILE"
        ~doc:
          "Update-batch file: one $(b,set CUBE key... value) or \
           $(b,del CUBE key...) per line ($(b,#) comments allowed).")

let cmd =
  let doc = "run EXL statistical programs against CSV data" in
  Cmd.v
    (Cmd.info "exlrun" ~version:"1.0" ~doc)
    Term.(
      const run $ file_arg $ data_arg $ out_arg $ backend_arg $ verify_arg
      $ override_arg $ fault_plan_arg $ max_attempts_arg $ backoff_arg
      $ timeout_arg $ trace_arg $ metrics_arg $ events_arg $ provenance_arg
      $ normalize_arg)

let update_cmd =
  let doc =
    "apply a batched elementary-data revision and incrementally recompute \
     exactly the affected derived cubes"
  in
  Cmd.v
    (Cmd.info "exlrun update" ~doc)
    Term.(const run_update $ file_arg $ data_arg $ updates_arg $ out_arg)

(* [exlrun update …] dispatches to the update subcommand; anything else
   keeps the historical positional interface ([exlrun file.exl --data]),
   which a command group would shadow. *)
let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "update" then
    let rest = Array.sub argv 2 (Array.length argv - 2) in
    exit (Cmd.eval' ~argv:(Array.append [| "exlrun update" |] rest) update_cmd)
  else exit (Cmd.eval' cmd)
