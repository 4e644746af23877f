(* exlserve: the long-running query/update daemon over the incremental
   engine (docs/SERVING.md).

   Boot: register EXL programs, load elementary data (CSV directory
   and/or a persisted store), recompute everything once (a fault plan
   may quarantine cubes — they serve 503 while healthy cubes answer),
   warm the incremental solution cache, then serve:

     POST /v1/update                 batched revisions (text or JSON)
     GET  /v1/cube/:name             current slice, dim filters
     GET  /v1/cube/:name/asof/:date  point-in-time read from history
     GET  /v1/sdmx/:name             SDMX-ML generic data
     GET  /metrics                   Prometheus exposition

   Examples:
     exlserve --programs examples/quickstart.exl --data ./data --port 8080
     exlserve --programs ./programs --store-dir ./store --unix-socket /tmp/exl.sock *)

open Cmdliner
open Matrix

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --programs accepts .exl files and directories of them. *)
let program_files paths =
  List.concat_map
    (fun path ->
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list |> List.sort String.compare
        |> List.filter (fun f -> Filename.check_suffix f ".exl")
        |> List.map (Filename.concat path)
      else [ path ])
    paths

let load_csv_data engine data_dir =
  let det = Engine.Exlengine.determination engine in
  let rec loop = function
    | [] -> Ok ()
    | name :: rest -> (
        match
          (Engine.Determination.kind det name, Engine.Determination.schema det name)
        with
        | Some Registry.Elementary, Some schema -> (
            let path = Filename.concat data_dir (name ^ ".csv") in
            if not (Sys.file_exists path) then begin
              Printf.eprintf
                "warning: no data for elementary cube %s (%s missing)\n" name
                path;
              loop rest
            end
            else
              match Csv.cube_of_string schema (read_file path) with
              | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
              | Ok cube -> (
                  match Engine.Exlengine.load_elementary engine cube with
                  | Error msg -> Error msg
                  | Ok () -> loop rest))
        | _ -> loop rest)
  in
  loop (Engine.Determination.cubes det)

let boot ~programs ~data_dir ~store_dir ~fault_plan =
  let faults =
    match fault_plan with
    | None -> Ok None
    | Some path -> (
        match Engine.Faults.of_string (read_file path) with
        | Ok plan -> Ok (Some plan)
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  match faults with
  | Error _ as e -> e
  | Ok faults -> (
      let config = { Engine.Exlengine.default_config with faults } in
      let engine = Engine.Exlengine.create ~config () in
      let rec register = function
        | [] -> Ok ()
        | path :: rest -> (
            match
              Engine.Exlengine.register_program engine
                ~name:(Filename.remove_extension (Filename.basename path))
                (read_file path)
            with
            | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
            | Ok () -> register rest)
      in
      match register (program_files programs) with
      | Error _ as e -> e
      | Ok () -> (
          let loaded =
            match store_dir with
            | Some dir when Sys.file_exists (Filename.concat dir "manifest") ->
                Engine.Exlengine.load_store engine ~dir
            | _ -> Ok ()
          in
          match loaded with
          | Error _ as e -> e
          | Ok () -> (
              let data =
                match data_dir with
                | Some dir -> load_csv_data engine dir
                | None -> Ok ()
              in
              match data with
              | Error _ as e -> e
              | Ok () -> (
                  match Engine.Exlengine.recompute_all engine with
                  | Error _ as e -> e
                  | Ok report -> (
                      match Engine.Exlengine.warm engine with
                      | Error msg ->
                          (* A quarantined boot cannot always build the
                             full solution cache; serve degraded rather
                             than refuse to start. *)
                          Printf.eprintf
                            "warning: incremental cache not warmed: %s\n" msg;
                          Ok (engine, report)
                      | Ok () -> Ok (engine, report))))))

let run programs data_dir store_dir port host unix_socket max_queue
    request_timeout commit_timeout fault_plan log_file =
  if programs = [] then begin
    prerr_endline "error: at least one --programs file or directory required";
    1
  end
  else
    match boot ~programs ~data_dir ~store_dir ~fault_plan with
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        1
    | Ok (engine, report) ->
        (* /metrics only: a daemon that kept spans would grow by one
           span per instrumented call on every commit *)
        Obs.install (Obs.create ~spans:false ());
        let log =
          match log_file with
          | None -> None
          | Some path ->
              let oc = open_out path in
              let m = Mutex.create () in
              at_exit (fun () -> close_out_noerr oc);
              Some
                (fun line ->
                  Mutex.lock m;
                  output_string oc line;
                  output_char oc '\n';
                  flush oc;
                  Mutex.unlock m)
        in
        let config =
          {
            Serve.Server.default_config with
            max_queue;
            request_timeout;
            commit_timeout;
            log;
          }
        in
        let server = Serve.Server.create ~config ~report engine in
        let summary = Engine.Dispatcher.failure_summary report in
        if summary <> "" then begin
          print_endline "boot recompute degraded:";
          print_endline summary
        end;
        let fd =
          match unix_socket with
          | Some path ->
              let fd = Serve.Server.listen_unix ~path () in
              Printf.printf "exlserve: listening on %s\n%!" path;
              fd
          | None ->
              let fd, actual = Serve.Server.listen_inet ~host ~port () in
              Printf.printf "exlserve: listening on http://%s:%d/\n%!" host
                actual;
              fd
        in
        let stop _ = Serve.Server.request_shutdown server in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Serve.Server.serve server fd;
        (match unix_socket with
        | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | None -> ());
        (match store_dir with
        | None -> ()
        | Some dir -> (
            match Engine.Exlengine.save_store engine ~dir with
            | Ok () -> Printf.printf "exlserve: store saved to %s\n%!" dir
            | Error msg ->
                Printf.eprintf "error: saving store to %s: %s\n" dir msg));
        print_endline "exlserve: drained";
        0

let programs_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "p"; "programs" ] ~docv:"PATH"
        ~doc:"EXL program file, or a directory of .exl files (repeatable).")

let data_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "d"; "data" ] ~docv:"DIR"
        ~doc:"Directory with <CUBE>.csv files for elementary cubes.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent cube store: loaded at boot when a manifest exists, \
           saved back on drain.")

let port_arg =
  Arg.(
    value & opt int 8080
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port to listen on; 0 picks an ephemeral port.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let unix_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix-socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket instead of TCP.")

let max_queue_arg =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Queued update batches before admission control answers 429 with \
           Retry-After.")

let request_timeout_arg =
  Arg.(
    value & opt float 10.
    & info [ "request-timeout" ] ~docv:"SECONDS"
        ~doc:"Socket read/write budget per request.")

let commit_timeout_arg =
  Arg.(
    value & opt float 30.
    & info [ "commit-timeout" ] ~docv:"SECONDS"
        ~doc:"Max time a POST /v1/update waits for its commit before 504.")

let fault_plan_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "fault-plan" ] ~docv:"FILE"
        ~doc:
          "Inject deterministic failures during the boot recompute (see \
           docs/RELIABILITY.md); quarantined cubes serve 503 diagnostics.")

let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:"Write a JSONL request trace (one JSON object per request).")

let cmd =
  let doc = "serve EXL cubes over HTTP with group-committed incremental updates" in
  Cmd.v
    (Cmd.info "exlserve" ~version:"1.0" ~doc)
    Term.(
      const run $ programs_arg $ data_arg $ store_arg $ port_arg $ host_arg
      $ unix_socket_arg $ max_queue_arg $ request_timeout_arg
      $ commit_timeout_arg $ fault_plan_arg $ log_arg)

let () = exit (Cmd.eval' cmd)
