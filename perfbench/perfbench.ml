(* perfbench: one run of one workload.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--exlserve PATH] [--nproc N] [--commit REV]

   Prints every figure of the run, the output checks, and as its last
   line the result object (end-to-end metrics with --trace 0, per-layer
   metrics with --trace 1); writes the full record, host facts
   included, to .perfbench/results/.  Exits 1 when an output check
   fails, 2 on a usage or set-up error.  run.py builds the binaries and
   calls this. *)

open Measure

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload compile_catalog|gdp_cycle|serve_mixed \
     --seed N --seconds S --trace 0|1 [--exlserve PATH] [--nproc N] [--commit REV]";
  exit 2

let args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg ?default name =
  match (List.assoc_opt name args, default) with
  | Some v, _ -> v
  | None, Some d -> d
  | None, None -> usage ()

let int_arg ?default name =
  match int_of_string_opt (arg ?default name) with Some n -> n | None -> usage ()

let workloads = [ "compile_catalog"; "gdp_cycle"; "serve_mixed" ]

let record ~workload ~seed ~seconds ~trace o =
  let module J = Obs.Json in
  let str s = J.Str s and num x = J.Num x in
  let connections = if workload = "serve_mixed" then Serve_mix.connections else 0 in
  J.Obj
    [
      ("workload", str workload);
      ("seed", num (float_of_int seed));
      ("seconds", num seconds);
      ("trace", J.Bool trace);
      ( "host",
        J.Obj
          [
            ("nproc", num (float_of_int (int_arg ~default:"0" "nproc")));
            ( "recommended_domain_count",
              num (float_of_int (Domain.recommended_domain_count ())) );
            ("ocaml_version", str Sys.ocaml_version);
          ] );
      ("commit", str (arg ~default:"unknown" "commit"));
      ("client_connections", num (float_of_int connections));
      ("notes", J.Obj (List.map (fun (k, v) -> (k, str v)) o.notes));
      ("checks", J.Obj (List.map (fun (k, ok) -> (k, J.Bool ok)) o.checks));
      ("attempted", num (float_of_int o.attempted));
      ("failed", num (float_of_int o.failed));
      ("metrics", metric_json (if trace then o.per_layer else o.end_to_end));
      ("report", metric_json o.report);
    ]
  |> J.to_string

let () =
  let workload = arg "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let trace =
    match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let o =
    try
      match workload with
      | "compile_catalog" -> Compile_catalog.run ~seed ~seconds ~trace
      | "gdp_cycle" -> Gdp_cycle.run ~seed ~seconds ~trace
      | _ ->
          Serve_mixed.run
            ~exe:(arg ~default:"_build/default/bin/exlserve.exe" "exlserve")
            ~seed ~seconds ~trace
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" workload (Printexc.to_string e);
      exit 2
  in
  print_table
    (Printf.sprintf "%s seed=%d seconds=%g trace=%b" workload seed seconds trace)
    ((if trace then o.per_layer else o.end_to_end) @ o.report);
  List.iter
    (fun (name, ok) -> Printf.printf "check %-52s %s\n" name (if ok then "ok" else "FAILED"))
    o.checks;
  Printf.printf "attempted %d, failed %d\n" o.attempted o.failed;
  let dir = Workdir.file "results" in
  Workdir.mkdir_p dir;
  Workdir.write_file
    (Filename.concat dir
       (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int trace)))
    (record ~workload ~seed ~seconds ~trace o);
  print_endline (result_line o ~trace);
  if not (correct o) then exit 1
