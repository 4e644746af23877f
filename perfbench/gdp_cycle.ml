(* gdp_cycle: production cycles of the paper's Section 2 GDP program and
   its dissemination program under the default engine configuration,
   with the technical-metadata overrides GDPT -> vector and
   GDP_INDEX -> etl.

   One op is one production cycle over a seeded data delivery: load
   both elementary cubes, recompute (determination, partition, cached
   translation, dispatch of five subgraphs to three targets), save the
   store.  The relational executor and the CSV store dominate; the
   chase and the server never run. *)

open Measure

(* Deliveries differ in coverage (regions reporting), so cycle costs
   spread over five evenly used sizes instead of clustering at one: the
   median sits in the middle of the third size and the 90th percentile
   in the middle of the fifth, never on the edge between two sizes, and
   both move in proportion to a change in per-fact cost. *)
let coverage = [| 2; 6; 4; 10; 8 |]
let deliveries = Array.length coverage
let years = 5
let setup_runs = 5

let span = Layers.span

(* Per-op figures the traced run aggregates. *)
type acc = {
  mutable translate : float;
  mutable execute : (string * float) list;  (** target -> seconds *)
  mutable recompute : float;
}

let acc = { translate = 0.; execute = []; recompute = 0. }

let account (report : Engine.Dispatcher.report) =
  List.iter
    (fun (s : Engine.Dispatcher.subgraph_report) ->
      acc.translate <- acc.translate +. s.Engine.Dispatcher.translate_seconds;
      let t = s.Engine.Dispatcher.target in
      let prev = Option.value ~default:0. (List.assoc_opt t acc.execute) in
      acc.execute <-
        (t, prev +. s.Engine.Dispatcher.execute_seconds)
        :: List.remove_assoc t acc.execute)
    report.Engine.Dispatcher.subgraphs

(* Delivery [i] carries reference date 2026-01-01 + [i] days; a cycle
   over a delivery already seen replaces that date's history version,
   so memory does not grow with the number of cycles a run fits in. *)
let cycle engine ~dir i (pdr, rgdppc) =
  let as_of =
    Matrix.Calendar.Date.add_days (Matrix.Calendar.Date.make ~year:2026 ~month:1 ~day:1) i
  in
  let loaded =
    span "pb:engine.load_elementary" (fun () ->
        Result.bind (Engine.Exlengine.load_elementary engine pdr) (fun () ->
            Engine.Exlengine.load_elementary engine rgdppc))
  in
  let recomputed =
    span "pb:engine.recompute" (fun () ->
        let r, dt = time (fun () -> Engine.Exlengine.recompute ~as_of engine) in
        acc.recompute <- acc.recompute +. dt;
        r)
  in
  let saved =
    span "pb:matrix.store_save" (fun () -> Engine.Exlengine.save_store engine ~dir)
  in
  match (loaded, recomputed, saved) with
  | Ok (), Ok report, Ok () ->
      account report;
      not (Engine.Dispatcher.degraded report)
  | _ -> false

let facts engine =
  let store = Engine.Exlengine.store engine in
  List.fold_left
    (fun n name -> n + Matrix.Cube.cardinality (Matrix.Registry.find_exn store name))
    0
    (Matrix.Registry.names store)

(* After the last cycle: every derived cube equals the reference
   interpreter's over the last delivery, and the saved store loads back
   to the engine's registry. *)
let checks engine ~dir last =
  let expected = Gdp_data.reference last in
  let derived_ok =
    Gdp_data.derived_match ~expected (Engine.Exlengine.cube engine)
  in
  let roundtrip =
    match Matrix.Store.load ~dir with
    | Ok reg -> Matrix.Registry.equal_data reg (Engine.Exlengine.store engine)
    | Error _ -> false
  in
  [
    ("derived cubes equal the reference interpreter", derived_ok);
    ("saved store round-trips the registry", roundtrip);
  ]

let run ~seed ~seconds ~trace =
  let st = Random.State.make [| seed; 0x6D9 |] in
  let data =
    Array.map (fun regions -> Gdp_data.delivery ~regions ~years st) coverage
  in
  let dir = Workdir.scratch_dir "gdp-store" in
  (* Set-up: engine creation, program registration and a warm-up cycle
     over each delivery, the first of which fills the translation cache.
     Repeated; the last engine is the one measured. *)
  let boot () =
    let e = Gdp_data.engine () in
    let ok = Array.for_all Fun.id (Array.mapi (cycle e ~dir) data) in
    (e, ok)
  in
  let setups = List.init setup_runs (fun _ -> time boot) in
  let engine, _ = fst (List.nth setups (setup_runs - 1)) in
  let setup_s = median (List.map snd setups) in
  let op i = cycle engine ~dir (i mod deliveries) data.(i mod deliveries) in
  let finish (r : run) =
    checks engine ~dir data.((r.ops - 1) mod deliveries)
    @ [ ("set-up cycles succeed", List.for_all (fun ((_, ok), _) -> ok) setups) ]
  in
  let notes =
    [
      ( "deliveries",
        Printf.sprintf "%d, of 2 to 10 regions x %d years of daily data" deliveries years );
    ]
  in
  if not trace then begin
    let r = closed_loop ~seconds ~min_ops:110 op in
    {
      attempted = r.ops;
      failed = r.op_failures;
      checks = finish r;
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
          m "facts_stored" "count" (float_of_int (facts engine));
        ];
      notes;
    }
  end
  else begin
    let reset () =
      acc.translate <- 0.;
      acc.execute <- [];
      acc.recompute <- 0.
    in
    let tr = Layers.traced_run ~seconds ~on_trace:reset op in
    let t = tr.Layers.t and ops = tr.Layers.traced.ops and c = tr.Layers.collector in
    Layers.export_chrome c ~path:(Workdir.file "trace-gdp_cycle.json");
    let per_op x = 1000. *. x /. float_of_int (max 1 ops) in
    let exec target = per_op (Option.value ~default:0. (List.assoc_opt target acc.execute)) in
    let executed = List.fold_left (fun a (_, s) -> a +. s) 0. acc.execute in
    let hits = Layers.counter c "translation.cache_hits" in
    let misses = Layers.counter c "translation.cache_misses" in
    let memo = Layers.counter c "executor.view_memo_hits" in
    let builds = Layers.counter c "executor.view_builds" in
    let n_facts = facts engine in
    let bytes_per_fact = float_of_int (Workdir.du dir) /. float_of_int (max 1 n_facts) in
    let alloc names =
      List.fold_left (fun a nm -> a +. Layers.alloc_mw_per_op ~ops ("pb:" ^ nm)) 0. names
    in
    let hit_ratio = Layers.ratio hits (hits +. misses) in
    let memo_ratio = Layers.ratio memo (memo +. builds) in
    let overhead = Layers.overhead tr in
    let ms name = Layers.ms_per_op t ~ops ("pb:" ^ name) in
    let report =
      [
        m "engine.load_elementary_ms" "ms" (ms "engine.load_elementary");
        m "engine.recompute_ms" "ms" (ms "engine.recompute");
        m "relational.execute_ms" "ms" (exec "sql");
        m "vector.execute_ms" "ms" (exec "vector");
        m "etl.execute_ms" "ms" (exec "etl");
        m "engine.translate_ms" "ms" (per_op acc.translate);
        m "engine.dispatch_other_ms" "ms"
          (per_op (acc.recompute -. acc.translate -. executed));
        m "engine.translation_hit_ratio" "ratio" hit_ratio;
        m "relational.view_memo_hit_ratio" "ratio" memo_ratio;
        m "matrix.store_save_ms" "ms" (ms "matrix.store_save");
        m "matrix.store_bytes_per_fact" "B" bytes_per_fact;
        m "engine.alloc_mw" "Mw" (alloc [ "engine.load_elementary"; "engine.recompute" ]);
        m "matrix.alloc_mw" "Mw" (alloc [ "matrix.store_save" ]);
        m "obs.overhead_pct" "%" overhead;
        m "traced_ops" "count" (float_of_int ops);
      ]
    in
    {
      attempted = tr.Layers.plain.ops + ops;
      failed = tr.Layers.plain.op_failures + tr.Layers.traced.op_failures;
      checks = finish tr.Layers.traced;
      end_to_end = [];
      per_layer =
        Layers.per_layer t
          [
            ("engine.translation_hit_ratio", hit_ratio);
            ("relational.view_memo_hit_ratio", memo_ratio);
            ("exchange.matches_per_tuple", Layers.matches_per_tuple c);
            ("matrix.store_bytes_per_fact", bytes_per_fact);
            ("alloc_mw_per_op", tr.Layers.words_per_op /. 1e6);
            ("obs.overhead_pct", overhead);
          ];
      report;
      notes;
    }
  end
