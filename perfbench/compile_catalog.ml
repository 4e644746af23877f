(* compile_catalog: the exlc check-and-translate path over a seeded
   catalog of generated programs plus the shipped examples.

   One op takes one program through Exl.Program.load, the linter,
   mapping generation, the containment optimizer and its certificate
   check, and the four artifact translators.  The front end, the
   optimizer and uncached translation do nearly all the work here and
   almost none in the other two workloads. *)

open Measure

(* The fuzz generator's deep profile with 6 to 20 statements.  Costs
   are heavy-tailed (the optimizer is superlinear in program size), so
   a run compiles many distinct programs for its percentiles to agree
   across seeds; larger programs would leave too few per run.  The
   catalog is small enough that a run goes through all of it at least
   once, so two runs of one seed time the same programs.  Statement
   counts are stratified rather than drawn, so every seed's catalog
   has the same size mix and only the programs' contents vary. *)
let min_stmts = 6
let max_stmts = 20
let catalog_size = 600

let profile stmts =
  { Fuzz.Gen.deep with Fuzz.Gen.statements = (stmts, stmts); quarters = 8 }

let examples () =
  Sys.readdir "examples" |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".exl")
  |> List.map (fun f -> Workdir.read_file (Filename.concat "examples" f))

let generated ~seed =
  let st = Random.State.make [| seed; 0xCA7A |] in
  List.init catalog_size (fun i ->
      let stmts = min_stmts + (i mod (max_stmts - min_stmts + 1)) in
      let s = Random.State.bits st in
      fst
        (Fuzz.Gen.rand_program_and_data ~profile:(profile stmts)
           (Random.State.make [| s |])))

(* The examples among the generated programs, shuffled by seed: a
   catalog position never predicts a program's size. *)
let shuffle ~seed programs =
  let all = Array.of_list programs in
  let st = Random.State.make [| seed; 0x5F1E |] in
  for i = Array.length all - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- t
  done;
  all

(* Per-op figures the traced run aggregates. *)
let tgds_before = ref 0
let tgds_after = ref 0

let span = Layers.span

(* One program through the pipeline; [true] when every output check
   passes: no lint error, a verified optimizer certificate, and every
   translation [Ok]. *)
let compile_one source =
  match span "pb:exl.load" (fun () -> Exl.Program.load source) with
  | Error _ -> false
  | Ok checked -> (
      let lint =
        span "pb:analysis.lint" (fun () ->
            Analysis.Lint.source_diagnostics source)
      in
      let lint_ok =
        not
          (List.exists
             (fun d -> d.Analysis.Diagnostic.severity = Analysis.Diagnostic.Error)
             lint.Analysis.Lint.diagnostics)
      in
      match span "pb:mappings.generate" (fun () -> Mappings.Generate.of_checked checked) with
      | Error _ -> false
      | Ok gen ->
          let opt =
            span "pb:analysis.optimize" (fun () ->
                Analysis.Optimize.run gen.Mappings.Generate.mapping)
          in
          let verified =
            span "pb:analysis.verify" (fun () -> Analysis.Optimize.verify opt)
          in
          tgds_before :=
            !tgds_before + List.length opt.Analysis.Optimize.original.Mappings.Mapping.t_tgds;
          tgds_after :=
            !tgds_after + List.length opt.Analysis.Optimize.optimized.Mappings.Mapping.t_tgds;
          let sql = span "pb:relational.sql_gen" (fun () -> Core.sql_of checked) in
          let r, matlab =
            span "pb:vector.script_gen" (fun () ->
                (Core.r_of checked, Core.matlab_of checked))
          in
          let kettle = span "pb:etl.kettle_gen" (fun () -> Core.kettle_of checked) in
          lint_ok && Result.is_ok verified
          && List.for_all Result.is_ok [ sql; r; matlab; kettle ])

(* The untimed warm-up pass: the examples and one generated program of
   each size. *)
let warm_up ~examples ~generated =
  let sizes = max_stmts - min_stmts + 1 in
  List.for_all compile_one (examples @ List.filteri (fun i _ -> i < sizes) generated)

let setup_runs = 5

let run ~seed ~seconds ~trace =
  let examples = examples () and generated = generated ~seed in
  let catalog = shuffle ~seed (examples @ generated) in
  let n = Array.length catalog in
  let op i = compile_one catalog.(i mod n) in
  let setups =
    List.init setup_runs (fun _ -> time (fun () -> warm_up ~examples ~generated))
  in
  let setup_ok = List.for_all fst setups in
  let setup_s = median (List.map snd setups) in
  let base_checks = [ ("warm-up pass compiles cleanly", setup_ok) ] in
  let notes =
    [
      ("catalog", Printf.sprintf "%d programs (%d generated, %d-%d statements)" n
          catalog_size min_stmts max_stmts);
    ]
  in
  if not trace then begin
    let r = closed_loop ~seconds ~min_ops:110 op in
    {
      attempted = r.ops;
      failed = r.op_failures;
      checks = base_checks;
      end_to_end =
        speed_metrics r
        @ [ m "setup_s" "s" setup_s; m "rss_peak_mb" "MB" (rss_peak_mb "self") ];
      per_layer = [];
      report =
        wall_metrics r
        @ [
          m "error_frac" "ratio" (float_of_int r.op_failures /. float_of_int r.ops);
          m "samples" "count" (float_of_int r.ops);
          m "samples_beyond_p90" "count" (float_of_int (beyond r.ops 0.9));
        ];
      notes;
    }
  end
  else begin
    let reset () =
      tgds_before := 0;
      tgds_after := 0
    in
    let tr = Layers.traced_run ~seconds ~on_trace:reset op in
    let t = tr.Layers.t and ops = tr.Layers.traced.ops in
    Layers.export_chrome tr.Layers.collector
      ~path:(Workdir.file "trace-compile_catalog.json");
    let ms name = Layers.ms_per_op t ~ops ("pb:" ^ name) in
    let alloc names =
      List.fold_left (fun a nm -> a +. Layers.alloc_mw_per_op ~ops ("pb:" ^ nm)) 0. names
    in
    let overhead = Layers.overhead tr in
    let kept = Layers.ratio (float_of_int !tgds_after) (float_of_int !tgds_before) in
    let report =
      [
        m "exl.load_ms" "ms" (ms "exl.load");
        m "mappings.generate_ms" "ms" (ms "mappings.generate");
        m "analysis.lint_ms" "ms" (ms "analysis.lint");
        m "analysis.optimize_ms" "ms" (ms "analysis.optimize");
        m "analysis.verify_ms" "ms" (ms "analysis.verify");
        m "analysis.tgds_kept_ratio" "ratio" kept;
        m "relational.sql_gen_ms" "ms" (ms "relational.sql_gen");
        m "vector.script_gen_ms" "ms" (ms "vector.script_gen");
        m "etl.kettle_gen_ms" "ms" (ms "etl.kettle_gen");
        m "exl.alloc_mw" "Mw" (alloc [ "exl.load" ]);
        m "mappings.alloc_mw" "Mw" (alloc [ "mappings.generate" ]);
        m "analysis.alloc_mw" "Mw"
          (alloc [ "analysis.lint"; "analysis.optimize"; "analysis.verify" ]);
        m "translate.alloc_mw" "Mw"
          (alloc [ "relational.sql_gen"; "vector.script_gen"; "etl.kettle_gen" ]);
        m "obs.overhead_pct" "%" overhead;
        m "traced_ops" "count" (float_of_int ops);
      ]
    in
    {
      attempted = tr.Layers.plain.ops + ops;
      failed = tr.Layers.plain.op_failures + tr.Layers.traced.op_failures;
      checks = base_checks;
      end_to_end = [];
      per_layer =
        Layers.per_layer t
          [
            ("analysis.tgds_kept_ratio", kept);
            ("exchange.matches_per_tuple", Layers.matches_per_tuple tr.Layers.collector);
            ("alloc_mw_per_op", tr.Layers.words_per_op /. 1e6);
            ("obs.overhead_pct", overhead);
          ];
      report;
      notes;
    }
  end
