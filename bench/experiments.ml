(* The experiment harness: X1-X14, X9 retired (see DESIGN.md and
   EXPERIMENTS.md).

   The paper has no quantitative evaluation tables (it is an industrial
   experience paper); these experiments quantify each claim its prose
   makes, and their printed tables are the repository's "evaluation
   section".  Absolute numbers are machine-dependent; the shapes are
   what EXPERIMENTS.md discusses. *)
open Matrix

(* Measurement discipline: one untimed warmup run (fills lazy caches —
   indexes, memoized batches, translation tables), then per-repetition
   samples until >= 0.1 s total (at least 5 runs, at most 200).  Rows
   report the MEDIAN, which a single GC pause or scheduler blip cannot
   move the way it moves a mean, plus the relative spread
   (p90 - p10) / median so tables show how trustworthy each median
   is.  The regression guards compare medians only. *)
type sample = {
  median_seconds : float;
  spread_pct : float;  (** (p90 - p10) / median, as a percentage *)
  sample_reps : int;
}

let sample_stats durations =
  let sorted = Array.copy durations in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let at p =
    sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))
  in
  let median =
    if n mod 2 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.
  in
  {
    median_seconds = median;
    spread_pct =
      (if median > 0. then (at 0.9 -. at 0.1) /. median *. 100. else 0.);
    sample_reps = n;
  }

let samples_of elapsed f =
  ignore (f ());
  let durations = ref [] in
  let total = ref 0. in
  let reps = ref 0 in
  while (!total < 0.1 || !reps < 5) && !reps < 200 do
    let d = elapsed f in
    durations := d :: !durations;
    total := !total +. d;
    incr reps
  done;
  Array.of_list !durations

let cpu_elapsed f =
  let t0 = Sys.time () in
  ignore (f ());
  Sys.time () -. t0

(* Wall clock via the monotone shim: an NTP step mid-measurement must
   not produce a negative (or inflated) reading. *)
let wall_elapsed f =
  let t0 = Obs.Clock.now () in
  ignore (f ());
  Obs.Clock.elapsed t0

let time_stats f = sample_stats (samples_of cpu_elapsed f)

(* Wall-clock medians, for code that parks domains (CPU time would
   undercount) or that we compare against parallel runs. *)
let wall_stats f = sample_stats (samples_of wall_elapsed f)

(* Median seconds per run (the names predate the median harness; every
   call site wants the robust central estimate, so they all get it). *)
let time_avg f = (time_stats f).median_seconds
let wall_avg f = (wall_stats f).median_seconds

let time_once f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let wall_time_once f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.elapsed t0)

let ms seconds = seconds *. 1000.

let compile_exn = Core.compile_exn

let run_exn ~backend program data =
  match Core.run ~backend program data with
  | Ok r -> r
  | Error msg -> failwith (Core.backend_name backend ^ ": " ^ msg)

let header title = Printf.printf "\n### %s\n\n" title

(* ------------------------------------------------------------------ *)
(* X1 — Figure 1: the ETL flow for tgd (2) vs the other engines on the
   same single-join tgd; throughput in joined rows per second. *)

let x1 () =
  header
    "X1  Figure 1: one join tgd (RGDP-style) across engines [rows/s, higher is better]";
  let program = compile_exn Workload.join_program in
  Printf.printf "%10s %14s %14s %14s %14s\n" "rows" "sql" "etl" "vector" "chase";
  List.iter
    (fun rows ->
      let data = Workload.join_registry ~rows () in
      let throughput backend =
        let seconds = time_avg (fun () -> run_exn ~backend program data) in
        float_of_int rows /. seconds
      in
      Printf.printf "%10d %14.0f %14.0f %14.0f %14.0f\n%!" rows
        (throughput Core.Sql) (throughput Core.Etl_engine)
        (throughput Core.Vector_engine) (throughput Core.Chase))
    [ 1_000; 5_000; 20_000 ]

(* ------------------------------------------------------------------ *)
(* X2 — the Section 2 worked example end to end on every back end. *)

let x2 () =
  header "X2  Section 2 GDP program end to end [ms, lower is better]";
  let program = compile_exn Workload.overview_program in
  Printf.printf "%22s %10s %10s %10s %10s %10s\n" "workload" "reference"
    "chase" "sql" "vector" "etl";
  List.iter
    (fun (regions, years) ->
      let data = Workload.overview_registry ~regions ~years () in
      let t backend = ms (time_avg (fun () -> run_exn ~backend program data)) in
      Printf.printf "%14d reg x %dy %10.1f %10.1f %10.1f %10.1f %10.1f\n%!"
        regions years (t Core.Reference) (t Core.Chase) (t Core.Sql)
        (t Core.Vector_engine) (t Core.Etl_engine))
    [ (2, 2); (4, 4); (8, 4) ];
  (* correctness of every cell above *)
  let data = Workload.overview_registry ~regions:4 ~years:4 () in
  match Core.verify_all_backends program data with
  | Ok () -> print_endline "all back ends verified identical on the 4x4 workload."
  | Error msg -> Printf.printf "VERIFICATION FAILED:\n%s\n" msg

(* ------------------------------------------------------------------ *)
(* X3 — translation vs execution cost: the Section 6 claim that the
   metadata-driven approach "does not affect the global elapsed time"
   because translation is offline and data-independent. *)

let x3 () =
  header "X3  Translation vs execution cost [ms]";
  Printf.printf "%12s %12s %18s %18s %12s\n" "statements" "translate"
    "execute (1k rows)" "execute (20k rows)" "ratio@20k";
  List.iter
    (fun length ->
      let source = Workload.chain_program ~length in
      let program = compile_exn source in
      let translate_seconds =
        time_avg (fun () ->
            match Core.sql_of program with Ok s -> s | Error e -> failwith e)
      in
      let exec_seconds rows =
        let data = Workload.chain_registry ~rows () in
        time_avg (fun () -> run_exn ~backend:Core.Sql program data)
      in
      let e1k = exec_seconds 1_000 and e20k = exec_seconds 20_000 in
      Printf.printf "%12d %12.3f %18.1f %18.1f %11.0fx\n%!" length
        (ms translate_seconds) (ms e1k) (ms e20k)
        (e20k /. translate_seconds))
    [ 2; 8; 32 ]

(* ------------------------------------------------------------------ *)
(* X4 — the chase: correctness (Section 4.2) and scaling. *)

(* One naive-vs-semi-naive measurement: same mapping, same source,
   [Exchange.Chase.run_naive] against [Exchange.Chase.run]. *)
type chase_side = {
  seconds : float;
  matches_examined : int;
  tuples_generated : int;
  rounds : int;
}

type chase_row = {
  workload : string;
  naive : chase_side;
  semi_naive : chase_side;
}

let mapping_of source_program =
  match Mappings.Generate.of_checked (compile_exn source_program) with
  | Ok g -> g.Mappings.Generate.mapping
  | Error e -> failwith (Exl.Errors.to_string e)

let chase_side chase mapping source =
  let run () =
    match chase mapping source with
    | Ok (_, stats) -> stats
    | Error msg -> failwith msg
  in
  let stats = run () in
  let seconds = wall_avg (fun () -> ignore (run () : Exchange.Chase.stats)) in
  {
    seconds;
    matches_examined = stats.Exchange.Chase.matches_examined;
    tuples_generated = stats.Exchange.Chase.tuples_generated;
    rounds = stats.Exchange.Chase.rounds;
  }

let chase_row ~workload ~program ~data () =
  let mapping = mapping_of program in
  let source = Exchange.Instance.of_registry data in
  {
    workload;
    naive = chase_side (fun m s -> Exchange.Chase.run_naive m s) mapping source;
    semi_naive = chase_side (fun m s -> Exchange.Chase.run m s) mapping source;
  }

(* The chase workloads reported in BENCH_PR2.json: the x4 micro
   workload (overview at 2 regions x 2 years), a >= 10x scale-up of
   it, the single-join tgd at 16k rows, and a 16-step scalar chain
   (deep dependency graph, the worst case for the order-blind naive
   fixpoint). *)
let chase_rows () =
  [
    chase_row ~workload:"overview 2rx2y (x4 micro)"
      ~program:Workload.overview_program
      ~data:(Workload.overview_registry ~regions:2 ~years:2 ())
      ();
    chase_row ~workload:"overview 8rx5y (10x scale)"
      ~program:Workload.overview_program
      ~data:(Workload.overview_registry ~regions:8 ~years:5 ())
      ();
    chase_row ~workload:"join 16k rows" ~program:Workload.join_program
      ~data:(Workload.join_registry ~rows:16_000 ())
      ();
    chase_row ~workload:"chain length 16"
      ~program:(Workload.chain_program ~length:16)
      ~data:(Workload.chain_registry ~rows:2_000 ())
      ();
  ]

let print_chase_rows rows =
  Printf.printf "%-28s %10s %10s %14s %14s %8s %8s %7s\n" "workload"
    "naive ms" "semi ms" "naive matches" "semi matches" "ratio" "speedup"
    "rounds";
  List.iter
    (fun row ->
      Printf.printf "%-28s %10.1f %10.1f %14d %14d %7.1fx %7.2fx %3d/%d\n%!"
        row.workload (ms row.naive.seconds) (ms row.semi_naive.seconds)
        row.naive.matches_examined row.semi_naive.matches_examined
        (float_of_int row.naive.matches_examined
        /. float_of_int (max 1 row.semi_naive.matches_examined))
        (row.naive.seconds /. row.semi_naive.seconds)
        row.naive.rounds row.semi_naive.rounds)
    rows

let x4 () =
  header "X4  Chase scaling on the join tgd [per instance size]";
  let program = compile_exn Workload.join_program in
  Printf.printf "%10s %12s %16s %16s %12s\n" "rows" "time (ms)"
    "matches examined" "tuples generated" "time/row (us)";
  List.iter
    (fun rows ->
      let data = Workload.join_registry ~rows () in
      let generated =
        match Mappings.Generate.of_checked program with
        | Ok g -> g
        | Error e -> failwith (Exl.Errors.to_string e)
      in
      let source = Exchange.Instance.of_registry data in
      let (result : (Exchange.Instance.t * Exchange.Chase.stats, string) result), seconds
          =
        time_once (fun () ->
            Exchange.Chase.run generated.Mappings.Generate.mapping source)
      in
      match result with
      | Error msg -> failwith msg
      | Ok (_, stats) ->
          Printf.printf "%10d %12.1f %16d %16d %12.2f\n%!" rows (ms seconds)
            stats.Exchange.Chase.matches_examined
            stats.Exchange.Chase.tuples_generated
            (seconds /. float_of_int rows *. 1e6))
    [ 1_000; 4_000; 16_000; 64_000 ];
  (* the equivalence theorem, at scale *)
  let data = Workload.join_registry ~rows:16_000 () in
  (match Exchange.Verify.equivalent program data with
  | Ok _ -> print_endline "chase solution == program output (16k rows)."
  | Error msg -> Printf.printf "VERIFICATION FAILED:\n%s\n" msg);
  Printf.printf
    "\n  naive vs semi-naive evaluation [wall-clock; matches examined]\n\n";
  print_chase_rows (chase_rows ())

(* ------------------------------------------------------------------ *)
(* X5 — the determination engine: incremental vs full recomputation. *)

let x5 () =
  header "X5  Incremental recomputation via the determination engine [ms]";
  let fresh_engine () =
    let engine = Engine.Exlengine.create () in
    (match
       Engine.Exlengine.register_program engine ~name:"production"
         Workload.overview_program
     with
    | Ok () -> ()
    | Error msg -> failwith msg);
    (match
       Engine.Exlengine.register_program engine ~name:"dissemination"
         Workload.dissemination_program
    with
    | Ok () -> ()
    | Error msg -> failwith msg);
    let data = Workload.overview_registry ~regions:6 ~years:4 () in
    (match Engine.Exlengine.load_elementary engine (Registry.find_exn data "PDR") with
    | Ok () -> ()
    | Error msg -> failwith msg);
    (match
       Engine.Exlengine.load_elementary engine (Registry.find_exn data "RGDPPC")
     with
    | Ok () -> ()
    | Error msg -> failwith msg);
    (engine, data)
  in
  let engine, data = fresh_engine () in
  let _, full_seconds =
    time_once (fun () ->
        match Engine.Exlengine.recompute engine with
        | Ok r -> r
        | Error msg -> failwith msg)
  in
  let reload name =
    match Engine.Exlengine.load_elementary engine (Registry.find_exn data name) with
    | Ok () -> ()
    | Error msg -> failwith msg
  in
  let timed_recompute () =
    let report, seconds =
      time_once (fun () ->
          match Engine.Exlengine.recompute engine with
          | Ok r -> r
          | Error msg -> failwith msg)
    in
    (List.length report.Engine.Dispatcher.recomputed, seconds)
  in
  reload "RGDPPC";
  let n_partial, partial_seconds = timed_recompute () in
  reload "PDR";
  let n_full2, full2_seconds = timed_recompute () in
  Printf.printf "%-34s %10.1f ms  (%d cubes; includes first-time translation)\n"
    "initial full computation" (ms full_seconds) 7;
  Printf.printf "%-34s %10.1f ms  (%d cubes; PQR skipped)\n"
    "revision touching RGDPPC only" (ms partial_seconds) n_partial;
  Printf.printf "%-34s %10.1f ms  (%d cubes; warm translation cache)\n"
    "revision touching PDR (everything)" (ms full2_seconds) n_full2;
  Printf.printf "incremental speedup vs full: %.2fx\n"
    (full2_seconds /. partial_seconds)

(* ------------------------------------------------------------------ *)
(* X6 — operator class vs target: "not all operators are natively
   supported by all systems". *)

let x6 () =
  header "X6  Operator class x engine [ms; n/s = not supported]";
  let cell backend source data =
    let program = compile_exn source in
    (* mirror the dispatcher's capability check *)
    let supported =
      match Mappings.Generate.of_checked program with
      | Error _ -> false
      | Ok g ->
          let target =
            match backend with
            | Core.Sql -> Engine.Target.sql
            | Core.Vector_engine -> Engine.Target.vector
            | Core.Etl_engine -> Engine.Target.etl_no_stl
            | _ -> Engine.Target.sql
          in
          List.for_all target.Engine.Target.supports
            g.Mappings.Generate.mapping.Mappings.Mapping.t_tgds
    in
    if not supported then "n/s"
    else Printf.sprintf "%.1f" (ms (time_avg (fun () -> run_exn ~backend program data)))
  in
  let series_data = Workload.series_registry ~quarters:200 ~regions:20 () in
  let join_data = Workload.join_registry ~rows:4_000 () in
  Printf.printf "%-26s %10s %10s %10s\n" "operator class" "sql" "vector" "etl";
  List.iter
    (fun (label, source, data) ->
      Printf.printf "%-26s %10s %10s %10s\n%!" label
        (cell Core.Sql source data)
        (cell Core.Vector_engine source data)
        (cell Core.Etl_engine source data))
    [
      ("tuple-level (join +ops)", Workload.join_program, join_data);
      ("aggregation (group by)", Workload.agg_program, series_data);
      ("black box (stl trend)", Workload.stl_program, series_data);
    ]

(* ------------------------------------------------------------------ *)
(* X7 — ablation: materialization strategy on the SQL target.
   Per-tgd INSERTs (the paper's base architecture), CREATE VIEW for
   temporaries (the Section 6 reformulation), and tgd fusion (the
   complex-tgd simplification). *)

let x7 () =
  header "X7  Ablation: materialization strategy on the SQL target [ms]";
  let programs =
    [
      ("overview (GDP)", Workload.overview_program,
       fun () -> Workload.overview_registry ~regions:4 ~years:4 ());
      ("chain of 16 scalar ops", Workload.chain_program ~length:16,
       fun () -> Workload.chain_registry ~rows:20_000 ());
    ]
  in
  Printf.printf "%-24s %12s %12s %12s %10s\n" "program" "insert/tgd"
    "views(tmp)" "fused tgds" "tgds";
  List.iter
    (fun (label, source, data_fn) ->
      let checked = compile_exn source in
      let data = data_fn () in
      let run ?fused ?views () =
        match Relational.Sql_target.run_program ?fused ?views checked data with
        | Ok _ -> ()
        | Error e -> failwith (Exl.Errors.to_string e)
      in
      let t_insert = ms (time_avg (fun () -> run ())) in
      let t_views = ms (time_avg (fun () -> run ~views:`Temporaries ())) in
      let t_fused = ms (time_avg (fun () -> run ~fused:true ())) in
      let tgds =
        match Mappings.Generate.of_checked checked with
        | Ok g ->
            let unfused =
              List.length g.Mappings.Generate.mapping.Mappings.Mapping.t_tgds
            in
            let fused =
              List.length
                (Mappings.Fuse.mapping g.Mappings.Generate.mapping)
                  .Mappings.Mapping.t_tgds
            in
            Printf.sprintf "%d->%d" unfused fused
        | Error _ -> "?"
      in
      Printf.printf "%-24s %12.1f %12.1f %12.1f %10s\n%!" label t_insert t_views
        t_fused tgds)
    programs

(* ------------------------------------------------------------------ *)
(* X8 — parallel dispatch: independent per-target subgraphs on separate
   domains ("applying parallelization and optimization patterns"). *)

let x8 () =
  header "X8  Parallel dispatch of independent subgraphs [wall-clock ms]";
  let setup ~parallel =
    let config =
      {
        Engine.Exlengine.default_config with
        Engine.Exlengine.parallel_dispatch = parallel;
        Engine.Exlengine.record_history = false;
        Engine.Exlengine.targets =
          [ Engine.Target.sql; Engine.Target.vector; Engine.Target.etl_full ];
        Engine.Exlengine.policy =
          {
            Engine.Dispatcher.priority = [ "vector" ];
            (* technical metadata pinning each program to its own
               engine, so the three subgraphs can run concurrently *)
            overrides =
              [
                ("T1", "vector"); ("A1", "vector");
                ("T2", "sql"); ("A2", "sql");
                ("T3", "etl-full"); ("A3", "etl-full");
              ];
          };
      }
    in
    let engine = Engine.Exlengine.create ~config () in
    List.iter
      (fun (name, src) ->
        match Engine.Exlengine.register_program engine ~name src with
        | Ok () -> ()
        | Error msg -> failwith msg)
      Workload.independent_programs;
    let data = Workload.independent_data ~quarters:400 ~regions:24 () in
    List.iter
      (fun name ->
        match
          Engine.Exlengine.load_elementary engine (Matrix.Registry.find_exn data name)
        with
        | Ok () -> ()
        | Error msg -> failwith msg)
      [ "S1"; "S2"; "S3" ];
    (engine, data)
  in
  let timed ~parallel =
    let engine, data = setup ~parallel in
    (* warm the translation cache, then time a full recomputation *)
    (match Engine.Exlengine.recompute engine with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    List.iter
      (fun name ->
        match
          Engine.Exlengine.load_elementary engine (Matrix.Registry.find_exn data name)
        with
        | Ok () -> ()
        | Error msg -> failwith msg)
      [ "S1"; "S2"; "S3" ];
    let _, seconds =
      wall_time_once (fun () ->
          match Engine.Exlengine.recompute engine with
          | Ok r -> r
          | Error msg -> failwith msg)
    in
    seconds
  in
  let cores = Stdlib.Domain.recommended_domain_count () in
  let seq = timed ~parallel:false in
  let par = timed ~parallel:true in
  Printf.printf "%-42s %10.1f ms\n" "sequential dispatch (3 subgraphs)" (ms seq);
  Printf.printf "%-42s %10.1f ms  (%d core%s available)\n"
    "parallel dispatch (3 domains)" (ms par) cores
    (if cores = 1 then "" else "s");
  Printf.printf "speedup: %.2fx\n" (seq /. par);
  if cores < 2 then
    print_endline
      "note: single-core environment — domain coordination overhead makes\n\
       parallel dispatch counterproductive here; the subgraphs are verified\n\
       independent (test_engine.ml: parallel == sequential results), and on a\n\
       multicore host the three stl-heavy groups scale toward min(3, cores)x." 

(* ------------------------------------------------------------------ *)
(* X10 — observability overhead.  The exl-obs layer is an ambient
   nullable sink: with no collector installed every instrumentation
   site is an atomic load and a branch, so the instrumented engine must
   run within 5% of its pre-instrumentation self; with a collector it
   additionally pays span records and aggregated counter flushes. *)

type obs_overhead = {
  disabled_seconds : float;
  enabled_seconds : float;
  enabled_overhead_pct : float;
  disabled_site_ns : float;  (** one disabled [Obs.count] call *)
  counters : (string * int) list;
      (** chase counters from one instrumented run, for the bench JSON *)
}

let obs_overhead () =
  let mapping = mapping_of Workload.overview_program in
  let data = Workload.overview_registry ~regions:8 ~years:5 () in
  let source = Exchange.Instance.of_registry data in
  let run () =
    match Exchange.Chase.run mapping source with
    | Ok _ -> ()
    | Error msg -> failwith msg
  in
  Obs.uninstall ();
  let disabled_seconds = wall_avg run in
  let collector = Obs.create () in
  let enabled_seconds = Obs.with_collector collector (fun () -> wall_avg run) in
  let counters = Obs.Metrics.counters collector.Obs.metrics in
  (* the disabled fast path itself, per call site *)
  let calls = 10_000_000 in
  let t0 = Obs.Clock.now () in
  for _ = 1 to calls do
    Obs.count "bench.disabled_site"
  done;
  let disabled_site_ns = Obs.Clock.elapsed t0 /. float_of_int calls *. 1e9 in
  {
    disabled_seconds;
    enabled_seconds;
    enabled_overhead_pct =
      (enabled_seconds /. disabled_seconds -. 1.) *. 100.;
    disabled_site_ns;
    counters;
  }

let x10 () =
  header "X10  Observability overhead [semi-naive chase, overview 8rx5y]";
  let o = obs_overhead () in
  Printf.printf "%-38s %10.2f ms\n" "chase, no collector installed"
    (ms o.disabled_seconds);
  Printf.printf "%-38s %10.2f ms  (%+.1f%%)\n"
    "chase, collector installed" (ms o.enabled_seconds)
    o.enabled_overhead_pct;
  Printf.printf "%-38s %10.1f ns\n" "one disabled instrumentation site"
    o.disabled_site_ns;
  Printf.printf "\n  counters from the instrumented run:\n";
  List.iter
    (fun (name, v) -> Printf.printf "    %-28s %10d\n" name v)
    o.counters

(* ------------------------------------------------------------------ *)
(* X11 — batched updates through the facade: [apply_updates] against a
   warm solution cache vs a from-scratch [recompute_all] (warm
   translation cache), on the 10x overview workload.  The incremental
   rows are what BENCH_PR5.json records and the CI guard re-measures. *)

type incr_row = {
  label : string;
  batch : int;  (** updates per batch *)
  scratch_seconds : float;
  incr_seconds : float;
  incr_speedup : float;
  facts_rederived : int;  (** deterministic: drift means an algorithm change *)
  total_facts : int;
  strata_skipped : int;
  strata_rederived : int;
}

let incr_rows () =
  let config =
    { Engine.Exlengine.default_config with record_history = false }
  in
  let engine = Engine.Exlengine.create ~config () in
  let check = function Ok v -> v | Error msg -> failwith msg in
  check
    (Engine.Exlengine.register_program engine ~name:"overview"
       Workload.overview_program);
  let data = Workload.overview_registry ~regions:8 ~years:5 () in
  List.iter
    (fun name ->
      check
        (Engine.Exlengine.load_elementary engine (Registry.find_exn data name)))
    [ "PDR"; "RGDPPC" ];
  ignore (check (Engine.Exlengine.recompute_all engine) : Engine.Dispatcher.report);
  check (Engine.Exlengine.warm engine);
  (* the most recent PDR observations — revisions in production arrive
     at the tail of the series *)
  let keys =
    List.sort
      (fun a b -> String.compare (Tuple.to_string a) (Tuple.to_string b))
      (Cube.keys (Registry.find_exn (Engine.Exlengine.store engine) "PDR"))
  in
  let n_keys = List.length keys in
  let tail n = List.filteri (fun i _ -> i >= n_keys - n) keys in
  (* Each timed application must differ from the previous one (an
     already-applied batch compacts to zero deltas), so the revised
     value carries a per-call salt. *)
  let salt = ref 0 in
  let batch n =
    incr salt;
    let v = Value.Float (5000. +. (0.125 *. float_of_int !salt)) in
    List.map
      (fun k -> Engine.Update.set ~cube:"PDR" ~key:(Tuple.to_list k) v)
      (tail n)
  in
  let row label n =
    let apply () =
      check (Engine.Exlengine.apply_updates engine (batch n))
    in
    let report = apply () in
    let incr_seconds =
      wall_avg (fun () -> ignore (apply () : Engine.Exlengine.update_report))
    in
    let scratch_seconds =
      wall_avg (fun () ->
          ignore (check (Engine.Exlengine.recompute_all engine)
                  : Engine.Dispatcher.report))
    in
    {
      label;
      batch = n;
      scratch_seconds;
      incr_seconds;
      incr_speedup = scratch_seconds /. incr_seconds;
      facts_rederived = report.Engine.Exlengine.facts_rederived;
      total_facts = report.Engine.Exlengine.total_facts;
      strata_skipped = report.Engine.Exlengine.strata_skipped;
      strata_rederived = report.Engine.Exlengine.strata_rederived;
    }
  in
  [
    row "overview 8rx5y, 1 revised key" 1;
    row "overview 8rx5y, 1% of PDR revised" (max 1 (n_keys / 100));
    row "overview 8rx5y, 10% of PDR revised" (max 1 (n_keys / 10));
  ]

let print_incr_rows rows =
  Printf.printf "%-36s %8s %12s %12s %9s %14s %8s\n" "workload" "batch"
    "scratch ms" "incr ms" "speedup" "rederived" "strata";
  List.iter
    (fun r ->
      Printf.printf "%-36s %8d %12.1f %12.1f %8.1fx %8d/%5d %5d/%d\n%!"
        r.label r.batch (ms r.scratch_seconds) (ms r.incr_seconds)
        r.incr_speedup r.facts_rederived r.total_facts r.strata_skipped
        r.strata_rederived)
    rows

let x11 () =
  header
    "X11  Batched updates: incremental apply_updates vs recompute_all [wall-clock]";
  print_incr_rows (incr_rows ())

(* ------------------------------------------------------------------ *)
(* X12 — the exl-opt optimizer: chase the generated mapping as-is vs
   the certified-optimized mapping on the same source instance.  The
   counter deltas (matches examined, tuples generated, non-core facts)
   are deterministic; BENCH_PR6.json records them and `--guard-opt`
   re-measures them in CI. *)

type opt_side = {
  opt_seconds : float;
  opt_matches : int;  (** candidate lhs assignments enumerated *)
  opt_tuples : int;  (** facts added, temporaries included *)
  opt_nulls : int;  (** non-core facts: temp padding + outer defaults *)
}

type opt_row = {
  opt_label : string;
  tgds_before : int;
  tgds_after : int;
  est_before : int;
  est_after : int;
  unopt : opt_side;
  opt : opt_side;
}

let opt_side mapping source =
  let run () =
    match Exchange.Chase.run mapping source with
    | Ok (_, stats) -> stats
    | Error msg -> failwith msg
  in
  let stats = run () in
  {
    opt_seconds = wall_avg (fun () -> ignore (run () : Exchange.Chase.stats));
    opt_matches = stats.Exchange.Chase.matches_examined;
    opt_tuples = stats.Exchange.Chase.tuples_generated;
    opt_nulls = stats.Exchange.Chase.nulls_created;
  }

let opt_row ~label ~program ~data () =
  let mapping = mapping_of program in
  let report = Analysis.Optimize.run mapping in
  (match Analysis.Optimize.verify report with
  | Ok () -> ()
  | Error msg -> failwith ("optimizer certificate rejected: " ^ msg));
  let source = Exchange.Instance.of_registry data in
  {
    opt_label = label;
    tgds_before = List.length mapping.Mappings.Mapping.t_tgds;
    tgds_after =
      List.length report.Analysis.Optimize.optimized.Mappings.Mapping.t_tgds;
    est_before = report.Analysis.Optimize.est_before;
    est_after = report.Analysis.Optimize.est_after;
    unopt = opt_side mapping source;
    opt = opt_side report.Analysis.Optimize.optimized source;
  }

let opt_rows () =
  [
    opt_row ~label:"overview 2rx2y (x4 micro)"
      ~program:Workload.overview_program
      ~data:(Workload.overview_registry ~regions:2 ~years:2 ())
      ();
    opt_row ~label:"overview 8rx5y (10x scale)"
      ~program:Workload.overview_program
      ~data:(Workload.overview_registry ~regions:8 ~years:5 ())
      ();
    opt_row ~label:"outer growth 4rx40q"
      ~program:Workload.outer_growth_program
      ~data:(Workload.series_registry ~quarters:40 ~regions:4 ())
      ();
  ]

let print_opt_rows rows =
  Printf.printf "%-28s %7s %14s %14s %14s %10s %10s\n" "workload" "tgds"
    "est. matches" "matches" "tuples" "non-core" "time";
  List.iter
    (fun r ->
      Printf.printf
        "%-28s %3d->%-3d %6d->%-6d %6d->%-6d %6d->%-6d %4d->%-4d %4.1f->%.1fms\n%!"
        r.opt_label r.tgds_before r.tgds_after r.est_before r.est_after
        r.unopt.opt_matches r.opt.opt_matches r.unopt.opt_tuples
        r.opt.opt_tuples r.unopt.opt_nulls r.opt.opt_nulls
        (ms r.unopt.opt_seconds) (ms r.opt.opt_seconds))
    rows

let x12 () =
  header
    "X12  exl-opt: chase of the generated vs the certified-optimized mapping";
  print_opt_rows (opt_rows ())

(* ------------------------------------------------------------------ *)
(* X13 — columnar batches: the chase through the vectorized kernels
   (dictionary-encoded batches, int-keyed hash join, grouped
   aggregation over float arrays) vs the row-at-a-time engine on the
   same mapping and source.  Both paths produce identical solutions
   and identical deterministic counters — asserted here before any
   timing — so the rows compare pure execution strategy.
   BENCH_PR7.json records the medians and `--guard-col` re-measures
   them in CI against a 2x speedup floor. *)

type col_row = {
  col_label : string;
  row_wall : sample;  (** [Chase.run ~columnar:false] *)
  col_wall : sample;  (** [Chase.run ~columnar:true] *)
  col_speedup : float;  (** row median / columnar median *)
  col_matches : int;  (** identical on both paths (asserted) *)
  col_tuples : int;
}

let col_ab_check ~label mapping data =
  let run columnar =
    match
      Exchange.Chase.run ~columnar mapping (Exchange.Instance.of_registry data)
    with
    | Ok (j, stats) -> (j, stats)
    | Error msg -> failwith (label ^ ": " ^ msg)
  in
  let j_row, s_row = run false in
  let j_col, s_col = run true in
  List.iter
    (fun (s : Schema.t) ->
      let name = s.Schema.name in
      let f_row = Exchange.Instance.facts j_row name
      and f_col = Exchange.Instance.facts j_col name in
      let equal =
        List.length f_row = List.length f_col
        && List.for_all2
             (fun a b ->
               Array.length a = Array.length b
               && Array.for_all2 Value.equal a b)
             f_row f_col
      in
      if not equal then
        failwith
          (Printf.sprintf "X13 %s: columnar and row solutions differ on %s"
             label name))
    mapping.Mappings.Mapping.target;
  if
    s_row.Exchange.Chase.matches_examined <> s_col.Exchange.Chase.matches_examined
    || s_row.Exchange.Chase.tuples_generated
       <> s_col.Exchange.Chase.tuples_generated
  then
    failwith
      (Printf.sprintf "X13 %s: columnar and row chase counters differ" label);
  s_col

let col_row ~label ~program ~data () =
  let mapping = mapping_of program in
  let stats = col_ab_check ~label mapping data in
  (* One shared source per side, as in production: source-resident
     caches (indexes, memoized batches) persist across revisions. *)
  let source = Exchange.Instance.of_registry data in
  let timed columnar =
    wall_stats (fun () ->
        match Exchange.Chase.run ~columnar mapping source with
        | Ok _ -> ()
        | Error msg -> failwith msg)
  in
  let row_wall = timed false in
  let col_wall = timed true in
  {
    col_label = label;
    row_wall;
    col_wall;
    col_speedup = row_wall.median_seconds /. col_wall.median_seconds;
    col_matches = stats.Exchange.Chase.matches_examined;
    col_tuples = stats.Exchange.Chase.tuples_generated;
  }

let col_rows () =
  [
    col_row ~label:"overview 8rx5y chase"
      ~program:Workload.overview_program
      ~data:(Workload.overview_registry ~regions:8 ~years:5 ())
      ();
    col_row ~label:"grouped aggregation 200qx200r"
      ~program:Workload.agg_program
      ~data:(Workload.series_registry ~quarters:200 ~regions:200 ())
      ();
  ]

let print_col_rows rows =
  Printf.printf "%-32s %16s %16s %9s %12s %10s\n" "workload"
    "row ms (spread)" "col ms (spread)" "speedup" "matches" "tuples";
  List.iter
    (fun r ->
      Printf.printf "%-32s %9.2f (%3.0f%%) %9.2f (%3.0f%%) %8.2fx %12d %10d\n%!"
        r.col_label
        (ms r.row_wall.median_seconds) r.row_wall.spread_pct
        (ms r.col_wall.median_seconds) r.col_wall.spread_pct
        r.col_speedup r.col_matches r.col_tuples)
    rows

let x13 () =
  header
    "X13  Columnar batches: vectorized chase vs the row engine [wall-clock \
     medians]";
  print_col_rows (col_rows ());
  print_endline
    "\n  (solutions and counters verified identical before timing; both\n\
    \   sides are medians from the same process, so CPU throttling cannot\n\
    \   move the speedup.)"

(* ------------------------------------------------------------------ *)
(* X14 — the sharded multicore chase (lib/shard): the overview workload
   at 100x the X13 scale, hash-partitioned on r into 16 shards, driven
   by 1/2/4/8 domains through the work-stealing pool — exactly the
   `exlrun --shards 16 --pool-size N-1` path.  The sharded solution is
   verified identical to the unsharded chase before any timing.
   Speedups are relative to the 1-domain run of the *same* sharded
   code path: split and merge costs appear on both sides of the ratio,
   so the table isolates how the per-shard phase scales with domains.
   BENCH_PR10.json records the table and `--guard-shard` re-measures
   it in CI against a 2.5x floor at 4 domains (the floor is only
   enforceable on hosts that actually have 4 cores; see
   Baseline.run_shard). *)

type shard_row = {
  shard_domains : int;  (** participants: pool workers + the submitter *)
  shard_wall : sample;
  shard_speedup : float;  (** 1-domain median / this row's median *)
}

let shard_shard_count = 16
let shard_domain_counts = [ 1; 2; 4; 8 ]

(* One sharded chase with [pool]'s workers plus the submitting domain:
   shard tasks go through the stealing executor, as in production. *)
let shard_chase ~pool mapping source =
  match
    Shard.Driver.run ~shards:shard_shard_count ~key:"r"
      ~executor:(Engine.Pool.stealing_executor pool) mapping source
  with
  | Ok (j, _) -> j
  | Error msg -> failwith ("X14 sharded chase: " ^ msg)

let shard_ab_check mapping data =
  let unsharded =
    match Exchange.Chase.run mapping (Exchange.Instance.of_registry data) with
    | Ok (j, _) -> j
    | Error msg -> failwith ("X14 unsharded chase: " ^ msg)
  in
  let sharded =
    Engine.Pool.with_pool ~size:3 (fun pool ->
        shard_chase ~pool mapping (Exchange.Instance.of_registry data))
  in
  List.iter
    (fun (s : Schema.t) ->
      let name = s.Schema.name in
      let f_u = Exchange.Instance.facts unsharded name
      and f_s = Exchange.Instance.facts sharded name in
      let equal =
        List.length f_u = List.length f_s
        && List.for_all2
             (fun a b ->
               Array.length a = Array.length b
               && Array.for_all2 Value.equal a b)
             f_u f_s
      in
      if not equal then
        failwith
          (Printf.sprintf "X14: sharded and unsharded solutions differ on %s"
             name))
    mapping.Mappings.Mapping.target

let shard_rows () =
  let mapping = mapping_of Workload.overview_program in
  let data = Workload.shard_registry () in
  shard_ab_check mapping data;
  (* One shared source across all domain counts, as in [col_row]:
     source-resident caches persist, and the timed runs differ only in
     how many domains drain the shard tasks. *)
  let source = Exchange.Instance.of_registry data in
  let timed domains =
    Engine.Pool.with_pool ~size:(domains - 1) (fun pool ->
        wall_stats (fun () -> ignore (shard_chase ~pool mapping source)))
  in
  let samples = List.map (fun d -> (d, timed d)) shard_domain_counts in
  let base = List.assoc 1 samples in
  List.map
    (fun (d, s) ->
      {
        shard_domains = d;
        shard_wall = s;
        shard_speedup = base.median_seconds /. s.median_seconds;
      })
    samples

let print_shard_rows rows =
  Printf.printf "%8s %20s %9s\n" "domains" "wall ms (spread)" "speedup";
  List.iter
    (fun r ->
      Printf.printf "%8d %13.1f (%3.0f%%) %8.2fx\n%!" r.shard_domains
        (ms r.shard_wall.median_seconds)
        r.shard_wall.spread_pct r.shard_speedup)
    rows

let x14 () =
  header
    "X14  Sharded chase: 16 hash shards on r, scaling over domains \
     [wall-clock medians]";
  print_shard_rows (shard_rows ());
  Printf.printf
    "\n\
    \  (sharded and unsharded solutions verified identical before timing;\n\
    \   this host reports %d core(s) — scaling beyond that is not\n\
    \   physically possible.)\n"
    (Stdlib.Domain.recommended_domain_count ())

let all () =
  x1 ();
  x2 ();
  x3 ();
  x4 ();
  x5 ();
  x6 ();
  x7 ();
  x8 ();
  x10 ();
  x11 ();
  x12 ();
  x13 ();
  x14 ()
