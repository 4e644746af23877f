(* Benchmark entry point.

     dune exec bench/main.exe            -- run experiments X1-X6 + micro suite
     dune exec bench/main.exe -- x3      -- one experiment
     dune exec bench/main.exe -- micro   -- only the Bechamel micro suite

   The experiment tables are the reproduction of the paper's (prose)
   evaluation; see EXPERIMENTS.md for the paper-vs-measured discussion. *)

open Bechamel
open Toolkit

(* One Bechamel test per experiment: a small, fixed-size kernel of the
   code path the experiment studies. *)
let micro_tests () =
  let join_program = Core.compile_exn Workload.join_program in
  let join_data = Workload.join_registry ~rows:2_000 () in
  let overview_program = Core.compile_exn Workload.overview_program in
  let overview_data = Workload.overview_registry ~regions:2 ~years:2 () in
  let chain_source = Workload.chain_program ~length:8 in
  let stl_program = Core.compile_exn Workload.stl_program in
  let stl_data = Workload.series_registry ~quarters:120 ~regions:4 () in
  let run backend program data () =
    match Core.run ~backend program data with
    | Ok _ -> ()
    | Error msg -> failwith msg
  in
  Test.make_grouped ~name:"exlengine" ~fmt:"%s %s"
    [
      Test.make ~name:"x1 figure1 join on etl"
        (Staged.stage (run Core.Etl_engine join_program join_data));
      Test.make ~name:"x1 figure1 join on sql"
        (Staged.stage (run Core.Sql join_program join_data));
      Test.make ~name:"x2 overview end-to-end (reference)"
        (Staged.stage (run Core.Reference overview_program overview_data));
      Test.make ~name:"x3 translation exl->mapping->sql"
        (Staged.stage (fun () ->
             match Core.sql_of (Core.compile_exn chain_source) with
             | Ok _ -> ()
             | Error msg -> failwith msg));
      Test.make ~name:"x4 chase on overview"
        (Staged.stage (run Core.Chase overview_program overview_data));
      Test.make ~name:"x5 determination affected-set"
        (Staged.stage
           (let d = Engine.Determination.create () in
            (match
               Engine.Determination.register_source d ~name:"p"
                 Workload.overview_program
             with
            | Ok () -> ()
            | Error msg -> failwith msg);
            fun () ->
              ignore (Engine.Determination.affected d ~changed:[ "RGDPPC" ])));
      Test.make ~name:"x6 stl blackbox on vector"
        (Staged.stage (run Core.Vector_engine stl_program stl_data));
    ]

(* (name, ns/run OLS estimate, r^2) rows, sorted by name. *)
let micro_results () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name result acc ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> e
        | _ -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square result) in
      (name, estimate, r2) :: acc)
    results []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let run_micro () =
  print_endline "\n### Bechamel micro suite (ns/run, OLS estimate)\n";
  Printf.printf "%-45s %15s %8s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, estimate, r2) ->
      let human =
        if estimate > 1e9 then Printf.sprintf "%8.2f s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%8.2f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%8.2f us" (estimate /. 1e3)
        else Printf.sprintf "%8.0f ns" estimate
      in
      Printf.printf "%-45s %15s %8.4f\n" name human r2)
    (micro_results ())

(* --- machine-readable baseline (BENCH_PR4.json) --- *)

(* Hand-rolled JSON: the toolchain has no JSON library and the schema
   is tiny.  Floats are emitted as %.6g with nan/inf mapped to null. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let json_side (side : Experiments.chase_side) =
  Printf.sprintf
    "{\"seconds\": %s, \"matches_examined\": %d, \"tuples_generated\": %d, \
     \"rounds\": %d}"
    (json_float side.Experiments.seconds)
    side.Experiments.matches_examined side.Experiments.tuples_generated
    side.Experiments.rounds

let run_json path =
  let chase = Experiments.chase_rows () in
  let obs = Experiments.obs_overhead () in
  let micro = micro_results () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"pr\": 4,\n  \"chase\": [\n";
  List.iteri
    (fun i row ->
      let naive = row.Experiments.naive
      and semi = row.Experiments.semi_naive in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\",\n\
           \     \"naive\": %s,\n\
           \     \"semi_naive\": %s,\n\
           \     \"matches_ratio\": %s,\n\
           \     \"speedup\": %s}%s\n"
           (json_escape row.Experiments.workload)
           (json_side naive) (json_side semi)
           (json_float
              (float_of_int naive.Experiments.matches_examined
              /. float_of_int (max 1 semi.Experiments.matches_examined)))
           (json_float (naive.Experiments.seconds /. semi.Experiments.seconds))
           (if i = List.length chase - 1 then "" else ",")))
    chase;
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n\
       \  \"obs\": {\"disabled_seconds\": %s, \"enabled_seconds\": %s, \
        \"enabled_overhead_pct\": %s, \"disabled_site_ns\": %s},\n\
       \  \"counters\": [\n"
       (json_float obs.Experiments.disabled_seconds)
       (json_float obs.Experiments.enabled_seconds)
       (json_float obs.Experiments.enabled_overhead_pct)
       (json_float obs.Experiments.disabled_site_ns));
  List.iteri
    (fun i (name, n) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": \"%s\", \"count\": %d}%s\n"
           (json_escape name) n
           (if i = List.length obs.Experiments.counters - 1 then "" else ",")))
    obs.Experiments.counters;
  Buffer.add_string buf "  ],\n  \"micro\": [\n";
  List.iteri
    (fun i (name, estimate, r2) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}%s\n"
           (json_escape name) (json_float estimate) (json_float r2)
           (if i = List.length micro - 1 then "" else ",")))
    micro;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  Experiments.print_chase_rows chase

(* --- incremental-recomputation baseline (BENCH_PR5.json) --- *)

let run_json_incr path =
  let rows = Experiments.incr_rows () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"pr\": 5,\n  \"incr\": [\n";
  List.iteri
    (fun i (r : Experiments.incr_row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"label\": \"%s\", \"batch\": %d,\n\
           \     \"scratch_seconds\": %s, \"incr_seconds\": %s, \"speedup\": \
            %s,\n\
           \     \"facts_rederived\": %d, \"total_facts\": %d,\n\
           \     \"strata_skipped\": %d, \"strata_rederived\": %d}%s\n"
           (json_escape r.Experiments.label)
           r.Experiments.batch
           (json_float r.Experiments.scratch_seconds)
           (json_float r.Experiments.incr_seconds)
           (json_float r.Experiments.incr_speedup)
           r.Experiments.facts_rederived r.Experiments.total_facts
           r.Experiments.strata_skipped r.Experiments.strata_rederived
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  Experiments.print_incr_rows rows

(* --- optimizer baseline (BENCH_PR6.json) --- *)

let json_opt_side (s : Experiments.opt_side) =
  Printf.sprintf
    "{\"seconds\": %s, \"matches_examined\": %d, \"tuples_generated\": %d, \
     \"nulls_created\": %d}"
    (json_float s.Experiments.opt_seconds)
    s.Experiments.opt_matches s.Experiments.opt_tuples s.Experiments.opt_nulls

let run_json_opt path =
  let rows = Experiments.opt_rows () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"pr\": 6,\n  \"opt\": [\n";
  List.iteri
    (fun i (r : Experiments.opt_row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"label\": \"%s\",\n\
           \     \"tgds_before\": %d, \"tgds_after\": %d,\n\
           \     \"est_before\": %d, \"est_after\": %d,\n\
           \     \"unoptimized\": %s,\n\
           \     \"optimized\": %s}%s\n"
           (json_escape r.Experiments.opt_label)
           r.Experiments.tgds_before r.Experiments.tgds_after
           r.Experiments.est_before r.Experiments.est_after
           (json_opt_side r.Experiments.unopt)
           (json_opt_side r.Experiments.opt)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  Experiments.print_opt_rows rows

(* --- columnar baseline (BENCH_PR7.json) --- *)

let json_sample (s : Experiments.sample) =
  Printf.sprintf "\"seconds\": %s, \"spread_pct\": %s, \"reps\": %d"
    (json_float s.Experiments.median_seconds)
    (json_float s.Experiments.spread_pct)
    s.Experiments.sample_reps

let run_json_col path =
  let rows = Experiments.col_rows () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"pr\": 7,\n  \"col\": [\n";
  List.iteri
    (fun i (r : Experiments.col_row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"label\": \"%s\",\n\
           \     \"row\": {%s},\n\
           \     \"col\": {%s},\n\
           \     \"speedup\": %s,\n\
           \     \"matches_examined\": %d, \"tuples_generated\": %d}%s\n"
           (json_escape r.Experiments.col_label)
           (json_sample r.Experiments.row_wall)
           (json_sample r.Experiments.col_wall)
           (json_float r.Experiments.col_speedup)
           r.Experiments.col_matches r.Experiments.col_tuples
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  Experiments.print_col_rows rows

(* --- sharding baseline (BENCH_PR10.json) --- *)

let run_json_shard path =
  let rows = Experiments.shard_rows () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"pr\": 10,\n  \"cores\": %d,\n  \"shards\": %d,\n  \"shard\": [\n"
       (Domain.recommended_domain_count ())
       Experiments.shard_shard_count);
  List.iteri
    (fun i (r : Experiments.shard_row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"domains\": %d, \"wall\": {%s}, \"speedup\": %s}%s\n"
           r.Experiments.shard_domains
           (json_sample r.Experiments.shard_wall)
           (json_float r.Experiments.shard_speedup)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  Experiments.print_shard_rows rows

(* --- serving baseline (BENCH_PR9.json) --- *)

let run_json_serve path =
  let rows = Serve_load.rows () in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"pr\": 9,\n  \"serve\": [\n";
  List.iteri
    (fun i (r : Serve_load.row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"label\": \"%s\",\n\
           \     \"requests\": %d, \"errors\": %d, \"rejected\": %d,\n\
           \     \"seconds\": %s, \"throughput\": %s,\n\
           \     \"p50_ms\": %s, \"p99_ms\": %s,\n\
           \     \"updates\": %d, \"commits\": %d}%s\n"
           (json_escape r.Serve_load.label)
           r.Serve_load.requests r.Serve_load.errors r.Serve_load.rejected
           (json_float r.Serve_load.seconds)
           (json_float r.Serve_load.throughput)
           (json_float r.Serve_load.p50_ms)
           (json_float r.Serve_load.p99_ms)
           r.Serve_load.updates r.Serve_load.commits
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  Serve_load.print_rows rows

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "x1" :: _ -> Experiments.x1 ()
  | _ :: "x2" :: _ -> Experiments.x2 ()
  | _ :: "x3" :: _ -> Experiments.x3 ()
  | _ :: "x4" :: _ -> Experiments.x4 ()
  | _ :: "x5" :: _ -> Experiments.x5 ()
  | _ :: "x6" :: _ -> Experiments.x6 ()
  | _ :: "x7" :: _ -> Experiments.x7 ()
  | _ :: "x8" :: _ -> Experiments.x8 ()
  | _ :: "x10" :: _ -> Experiments.x10 ()
  | _ :: "x11" :: _ -> Experiments.x11 ()
  | _ :: "x12" :: _ -> Experiments.x12 ()
  | _ :: "x13" :: _ -> Experiments.x13 ()
  | _ :: "x14" :: _ -> Experiments.x14 ()
  | _ :: "micro" :: _ -> run_micro ()
  | _ :: "--json" :: rest ->
      run_json (match rest with path :: _ -> path | [] -> "BENCH_PR4.json")
  | _ :: "--guard" :: rest ->
      Baseline.run
        (match rest with path :: _ -> path | [] -> "BENCH_PR4.json")
  | _ :: "--json-incr" :: rest ->
      run_json_incr
        (match rest with path :: _ -> path | [] -> "BENCH_PR5.json")
  | _ :: "--guard-incr" :: rest ->
      Baseline.run_incr
        (match rest with path :: _ -> path | [] -> "BENCH_PR5.json")
  | _ :: "--json-col" :: rest ->
      run_json_col
        (match rest with path :: _ -> path | [] -> "BENCH_PR7.json")
  | _ :: "--guard-col" :: rest ->
      Baseline.run_col
        (match rest with path :: _ -> path | [] -> "BENCH_PR7.json")
  | _ :: "--json-opt" :: rest ->
      run_json_opt
        (match rest with path :: _ -> path | [] -> "BENCH_PR6.json")
  | _ :: "--guard-opt" :: rest ->
      Baseline.run_opt
        (match rest with path :: _ -> path | [] -> "BENCH_PR6.json")
  | _ :: "--json-shard" :: rest ->
      run_json_shard
        (match rest with path :: _ -> path | [] -> "BENCH_PR10.json")
  | _ :: "--guard-shard" :: rest ->
      Baseline.run_shard
        (match rest with path :: _ -> path | [] -> "BENCH_PR10.json")
  | _ :: "--json-serve" :: rest ->
      run_json_serve
        (match rest with path :: _ -> path | [] -> "BENCH_PR9.json")
  | _ :: "--guard-serve" :: rest ->
      Baseline.run_serve
        (match rest with path :: _ -> path | [] -> "BENCH_PR9.json")
  | _ ->
      print_endline "EXLEngine benchmark harness (see EXPERIMENTS.md)";
      Experiments.all ();
      run_micro ()
