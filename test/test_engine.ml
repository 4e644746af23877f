(* EXLEngine architecture (Section 6): determination engine,
   dispatcher, historicity, and the facade. *)
open Matrix
open Helpers

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let overview_determination () =
  let d = Engine.Determination.create () in
  ok (Engine.Determination.register_source d ~name:"overview" Helpers.overview_program);
  d

(* --- determination --- *)

let test_affected_from_pdr () =
  let d = overview_determination () in
  Alcotest.(check (list string)) "all downstream of PDR"
    [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
    (Engine.Determination.affected d ~changed:[ "PDR" ])

let test_affected_from_rgdppc () =
  let d = overview_determination () in
  Alcotest.(check (list string)) "PQR not affected"
    [ "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
    (Engine.Determination.affected d ~changed:[ "RGDPPC" ])

let test_affected_empty () =
  let d = overview_determination () in
  Alcotest.(check (list string)) "nothing" []
    (Engine.Determination.affected d ~changed:[])

let test_dependents () =
  let d = overview_determination () in
  Alcotest.(check (list string)) "GDP feeds GDPT" [ "GDPT" ]
    (Engine.Determination.dependents_of d "GDP");
  Alcotest.(check (list string)) "GDPT feeds PCHNG" [ "PCHNG" ]
    (Engine.Determination.dependents_of d "GDPT")

let test_multi_program_sharing () =
  let d = overview_determination () in
  (* A second program reading GDP is fine... *)
  ok
    (Engine.Determination.register_source d ~name:"extra"
       "GDP2 := 2 * GDP;\n");
  Alcotest.(check (list string)) "GDP2 downstream"
    [ "RGDP"; "GDP"; "GDPT"; "PCHNG"; "GDP2" ]
    (Engine.Determination.affected d ~changed:[ "RGDPPC" ]);
  (* ... but redefining a derived cube is rejected. *)
  match
    Engine.Determination.register_source d ~name:"conflict" "GDP := 1 * GDP2;\n"
  with
  | Error msg ->
      Alcotest.(check bool) "mentions definition" true
        (Astring_contains.contains msg "defined")
  | Ok () -> Alcotest.fail "expected redefinition error"

let test_build_program_subset () =
  let d = overview_determination () in
  let checked = ok (Engine.Determination.build_program d ~cubes:[ "GDP"; "GDPT" ]) in
  let env = checked.Exl.Typecheck.env in
  (* RGDP becomes an input declaration. *)
  Alcotest.(check (option string)) "RGDP is input"
    (Some "elementary")
    (Option.map Registry.kind_to_string (Exl.Typecheck.Env.kind env "RGDP"));
  Alcotest.(check (option string)) "GDP derived"
    (Some "derived")
    (Option.map Registry.kind_to_string (Exl.Typecheck.Env.kind env "GDP"))

let test_partition_groups_runs () =
  let groups =
    Engine.Determination.partition
      ~assign:(fun c -> if c = "GDPT" then "vector" else "etl")
      [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
  in
  Alcotest.(check int) "three subgraphs" 3 (List.length groups);
  Alcotest.(check (list string)) "first run" [ "PQR"; "RGDP"; "GDP" ]
    (snd (List.nth groups 0));
  Alcotest.(check string) "second target" "vector" (fst (List.nth groups 1))

let test_dot_output () =
  let d = overview_determination () in
  let dot = Engine.Determination.dot d in
  Alcotest.(check bool) "edge" true
    (Astring_contains.contains dot "GDP -> GDPT")

(* --- dispatcher assignment --- *)

let test_assignment_respects_capabilities () =
  let d = overview_determination () in
  let policy =
    { Engine.Dispatcher.priority = [ "etl"; "vector"; "sql" ]; overrides = [] }
  in
  (* The ETL target lacks seasonal decomposition: GDPT must fall through
     to the vector engine. *)
  Alcotest.(check string) "GDPT goes to vector" "vector"
    (ok
       (Engine.Dispatcher.assign ~targets:Engine.Target.builtins ~policy d "GDPT"));
  Alcotest.(check string) "RGDP stays on etl" "etl"
    (ok (Engine.Dispatcher.assign ~targets:Engine.Target.builtins ~policy d "RGDP"))

let test_assignment_override () =
  let d = overview_determination () in
  let policy =
    {
      Engine.Dispatcher.priority = [ "sql" ];
      overrides = [ ("GDP", "vector") ];
    }
  in
  Alcotest.(check string) "override wins" "vector"
    (ok (Engine.Dispatcher.assign ~targets:Engine.Target.builtins ~policy d "GDP"))

let test_assignment_override_rejected_when_unsupported () =
  let d = overview_determination () in
  let policy =
    {
      Engine.Dispatcher.priority = [ "sql" ];
      overrides = [ ("GDPT", "etl") ];
    }
  in
  match Engine.Dispatcher.assign ~targets:Engine.Target.builtins ~policy d "GDPT" with
  | Error msg ->
      Alcotest.(check bool) "explains" true
        (Astring_contains.contains msg "cannot compute")
  | Ok t -> Alcotest.failf "expected rejection, got %s" t

(* --- historicity --- *)

let date y m d = Calendar.Date.make ~year:y ~month:m ~day:d

let test_historicity_as_of () =
  let h = Engine.Historicity.create () in
  let mk v =
    cube_of "GDP" [ ("q", Domain.Period (Some Calendar.Quarter)) ]
      [ [ vq 2020 1; vf v ] ]
  in
  Engine.Historicity.store h ~valid_from:(date 2026 1 1) (mk 100.);
  Engine.Historicity.store h ~valid_from:(date 2026 2 1) (mk 105.);
  Alcotest.(check int) "two versions" 2 (Engine.Historicity.version_count h "GDP");
  let v_jan = Option.get (Engine.Historicity.as_of h (date 2026 1 15) "GDP") in
  Alcotest.check value "january view" (vf 100.)
    (Option.get (Cube.find v_jan (key [ vq 2020 1 ])));
  let v_now = Option.get (Helpers.latest_version h "GDP") in
  Alcotest.check value "latest view" (vf 105.)
    (Option.get (Cube.find v_now (key [ vq 2020 1 ])));
  Alcotest.(check (option Helpers.cube_eq |> fun _ -> Alcotest.bool))
    "before first version" true
    (Engine.Historicity.as_of h (date 2025 1 1) "GDP" = None)

(* --- the facade --- *)

let make_engine ?config () =
  let engine = Engine.Exlengine.create ?config () in
  ok (Engine.Exlengine.register_program engine ~name:"overview" Helpers.overview_program);
  let data = overview_registry () in
  ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "PDR"));
  ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "RGDPPC"));
  (engine, data)

let overview_names = [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]

let test_facade_end_to_end () =
  let engine, data = make_engine () in
  let report = ok (Engine.Exlengine.recompute engine) in
  Alcotest.(check (list string)) "all recomputed" overview_names
    report.Engine.Dispatcher.recomputed;
  let reference = check_ok (Exl.Interp.run (load_overview ()) data) in
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Registry.find_exn reference name)
        (Option.get (Engine.Exlengine.cube engine name)))
    overview_names;
  Alcotest.(check (list string)) "dirty cleared" [] (Engine.Exlengine.changed engine)

let test_facade_incremental () =
  let engine, data = make_engine () in
  ignore (ok (Engine.Exlengine.recompute engine));
  (* Change only RGDPPC: PQR must not be recomputed. *)
  ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "RGDPPC"));
  let report = ok (Engine.Exlengine.recompute engine) in
  Alcotest.(check (list string)) "partial recomputation"
    [ "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
    report.Engine.Dispatcher.recomputed

let test_facade_translation_cache () =
  let engine, data = make_engine () in
  ignore (ok (Engine.Exlengine.recompute engine));
  let misses_after_first =
    Engine.Translation.cache_misses (Engine.Exlengine.translation_cache engine)
  in
  ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "PDR"));
  ignore (ok (Engine.Exlengine.recompute engine));
  Alcotest.(check int) "no new misses on identical recomputation"
    misses_after_first
    (Engine.Translation.cache_misses (Engine.Exlengine.translation_cache engine));
  Alcotest.(check bool) "cache hits recorded" true
    (Engine.Translation.cache_hits (Engine.Exlengine.translation_cache engine) > 0)

let test_facade_multi_target_split () =
  let config =
    {
      Engine.Exlengine.default_config with
      Engine.Exlengine.policy =
        { Engine.Dispatcher.priority = [ "etl"; "vector"; "sql" ]; overrides = [] };
    }
  in
  let engine, data = make_engine ~config () in
  let report = ok (Engine.Exlengine.recompute engine) in
  let targets_used =
    List.sort_uniq String.compare
      (List.map
         (fun (s : Engine.Dispatcher.subgraph_report) -> s.Engine.Dispatcher.target)
         report.Engine.Dispatcher.subgraphs)
  in
  Alcotest.(check (list string)) "split across engines" [ "etl"; "vector" ]
    targets_used;
  (* Results still agree with the reference interpreter. *)
  let reference = check_ok (Exl.Interp.run (load_overview ()) data) in
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Registry.find_exn reference name)
        (Option.get (Engine.Exlengine.cube engine name)))
    overview_names

let test_facade_parallel_dispatch () =
  (* Two independent programs over disjoint data: with the etl-priority
     policy they form independent subgraphs; parallel dispatch must
     produce the same cubes as sequential. *)
  let two_programs engine =
    ok
      (Engine.Exlengine.register_program engine ~name:"overview"
         Helpers.overview_program);
    ok
      (Engine.Exlengine.register_program engine ~name:"second"
         "cube S(m: month);\nS2 := 2 * S;\nS3 := cumsum(S2);\n");
    let data = overview_registry () in
    ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "PDR"));
    ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "RGDPPC"));
    let s =
      cube_of "S"
        [ ("m", Domain.Period (Some Calendar.Month)) ]
        (List.init 8 (fun i -> [ vm 2024 (i + 1); vf (float_of_int i) ]))
    in
    ok (Engine.Exlengine.load_elementary engine s)
  in
  let run parallel =
    let config =
      { Engine.Exlengine.default_config with Engine.Exlengine.parallel_dispatch = parallel }
    in
    let engine = Engine.Exlengine.create ~config () in
    two_programs engine;
    ignore (ok (Engine.Exlengine.recompute engine));
    engine
  in
  let sequential = run false and parallel = run true in
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Option.get (Engine.Exlengine.cube sequential name))
        (Option.get (Engine.Exlengine.cube parallel name)))
    [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG"; "S2"; "S3" ]

let test_facade_history_versions () =
  let engine, data = make_engine () in
  ignore (ok (Engine.Exlengine.recompute ~as_of:(date 2026 1 1) engine));
  ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "RGDPPC"));
  ignore (ok (Engine.Exlengine.recompute ~as_of:(date 2026 2 1) engine));
  Alcotest.(check int) "GDP has two versions" 2
    (Engine.Historicity.version_count (Engine.Exlengine.history engine) "GDP");
  Alcotest.(check int) "PQR has one version" 1
    (Engine.Historicity.version_count (Engine.Exlengine.history engine) "PQR")

let test_facade_store_persistence () =
  let engine, _ = make_engine () in
  ignore (ok (Engine.Exlengine.recompute engine));
  let dir = Filename.temp_file "exl_engine_store" "" in
  Sys.remove dir;
  ok (Engine.Exlengine.save_store engine ~dir);
  (* a fresh engine restores the saved state *)
  let engine2 = Engine.Exlengine.create () in
  ok
    (Engine.Exlengine.register_program engine2 ~name:"overview"
       Helpers.overview_program);
  ok (Engine.Exlengine.load_store engine2 ~dir);
  Alcotest.check cube_eq "GDP restored"
    (Option.get (Engine.Exlengine.cube engine "GDP"))
    (Option.get (Engine.Exlengine.cube engine2 "GDP"));
  (* elementary cubes are marked dirty: recompute refreshes everything *)
  Alcotest.(check bool) "dirty after load" true
    (Engine.Exlengine.changed engine2 <> []);
  let report = ok (Engine.Exlengine.recompute engine2) in
  Alcotest.(check int) "all recomputed" 5
    (List.length report.Engine.Dispatcher.recomputed)

let test_facade_rejects_unknown_elementary () =
  let engine = Engine.Exlengine.create () in
  ok (Engine.Exlengine.register_program engine ~name:"p" "cube A(x: int);\nB := A + 1;\n");
  let stray = cube_of "Z" [ ("x", Domain.Int) ] [ [ vi 1; vf 1. ] ] in
  match Engine.Exlengine.load_elementary engine stray with
  | Error msg ->
      Alcotest.(check bool) "mentions cube" true (Astring_contains.contains msg "Z")
  | Ok () -> Alcotest.fail "expected rejection"

let test_facade_rejects_measure_out_of_domain () =
  let engine = Engine.Exlengine.create () in
  ok (Engine.Exlengine.register_program engine ~name:"p" "cube A(x: int);\nB := A + 1;\n");
  let dims = [ ("x", Domain.Int) ] in
  ok (Engine.Exlengine.load_elementary engine (cube_of "A" dims [ [ vi 1; vf 1. ] ]));
  ignore (ok (Engine.Exlengine.recompute engine));
  let bad = cube_of "A" dims [ [ vi 1; vf 2. ]; [ vi 2; vs "two" ] ] in
  (match Engine.Exlengine.load_elementary engine bad with
  | Error msg ->
      Alcotest.(check bool) ("names the measure: " ^ msg) true
        (Astring_contains.contains msg "measure two out of domain")
  | Ok () -> Alcotest.fail "a String measure entered a Float cube");
  Alcotest.check cube_eq "store untouched"
    (cube_of "A" dims [ [ vi 1; vf 1. ] ])
    (Option.get (Engine.Exlengine.cube engine "A"));
  Alcotest.(check (list string)) "nothing marked changed" []
    (Engine.Exlengine.changed engine)

(* A key outside its domain fails the load with the same message,
   whether the key's value is its column's first of its code or a row
   whose key differs from that first value only in representation
   ([Float 1.] beside [Int 1] in an int column). *)
let test_facade_rejects_key_out_of_domain () =
  let engine = Engine.Exlengine.create () in
  ok
    (Engine.Exlengine.register_program engine ~name:"p"
       "cube A(x: int, s: string);\nB := A + 1;\n");
  (* Delivered under a looser schema, checked against the declared one. *)
  let dims = [ ("x", Domain.Any); ("s", Domain.String) ] in
  let declared =
    Engine.Determination.schema (Engine.Exlengine.determination engine) "A"
  in
  let expected =
    "data for A does not fit schema " ^ Schema.to_string (Option.get declared)
  in
  let rejected what cube =
    match Engine.Exlengine.load_elementary engine cube with
    | Error msg -> Alcotest.(check string) what expected msg
    | Ok () -> Alcotest.failf "%s: loaded" what
  in
  rejected "a float key" (cube_of "A" dims [ [ vf 1.5; vs "a"; vf 1. ] ]);
  (* The float row must come second in iteration order, so that its
     key is an exception of the code [Int 1] opened. *)
  let mixed =
    List.find
      (fun c ->
        let v = Cube.view c in
        Cube.key_value v 0 0 = vi 1 && Array.length v.Cube.exceptions.(0) = 1)
      (List.init 64 (fun i ->
           cube_of "A" dims [ [ vi 1; vs "a"; vf 1. ]; [ vf 1.; vs (string_of_int i); vf 2. ] ]))
  in
  rejected "a float key equal to an int key" mixed;
  Alcotest.(check (option reject)) "store untouched" None
    (Option.map ignore (Engine.Exlengine.cube engine "A"))

let prop_engine_matches_interp =
  QCheck.Test.make ~count:25
    ~name:"EXLEngine facade == interpreter on random programs" Gen.arb_seed
    (fun seed ->
      let src, reg = Gen.program_of_seed seed in
      let engine = Engine.Exlengine.create () in
      (match Engine.Exlengine.register_program engine ~name:"p" src with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "register: %s\n%s" msg src);
      List.iter
        (fun name ->
          match Engine.Exlengine.load_elementary engine (Registry.find_exn reg name) with
          | Ok () -> ()
          | Error msg -> QCheck.Test.fail_reportf "load: %s" msg)
        (Registry.elementary_names reg);
      (match Engine.Exlengine.recompute engine with
      | Ok _ -> ()
      | Error msg -> QCheck.Test.fail_reportf "recompute: %s\n%s" msg src);
      let checked = Exl.Program.load_exn src in
      let reference = check_ok (Exl.Interp.run checked reg) in
      List.for_all
        (fun name ->
          match Engine.Exlengine.cube engine name with
          | Some got ->
              Cube.equal_data ~eps:1e-7 (Registry.find_exn reference name) got
              || QCheck.Test.fail_reportf "cube %s differs on\n%s" name src
          | None ->
              Registry.kind_of reference name = Some Registry.Elementary
              || QCheck.Test.fail_reportf "missing %s on\n%s" name src)
        (Registry.derived_names reference))

(* --- the domain pool --- *)

let test_pool_run_all_order () =
  with_pool ~size:3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (run_all pool []);
      Alcotest.(check (list int)) "single" [ 42 ]
        (run_all pool [ (fun () -> 42) ]);
      (* results come back in submission order, not completion order *)
      let thunks = List.init 20 (fun i () -> i * i) in
      Alcotest.(check (list int)) "ordered"
        (List.init 20 (fun i -> i * i))
        (run_all pool thunks);
      (* the pool is reusable across bursts *)
      Alcotest.(check (list int)) "second burst" [ 1; 2; 3 ]
        (run_all pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ]))

let test_pool_zero_size () =
  (* every task runs on the submitting domain; must not deadlock *)
  with_pool ~size:0 (fun pool ->
      Alcotest.(check (list int)) "inline" [ 10; 20 ]
        (run_all pool [ (fun () -> 10); (fun () -> 20) ]))

let test_pool_exception_propagates () =
  with_pool ~size:2 (fun pool ->
      Alcotest.check_raises "re-raised" (Failure "boom") (fun () ->
          ignore
            (run_all pool
               [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
              : int list));
      (* the failed burst must not poison the pool *)
      Alcotest.(check (list int)) "still alive" [ 7 ]
        (run_all pool [ (fun () -> 7) ]))

let test_pool_shutdown_idempotent () =
  let pool = Engine.Pool.create ~size:2 () in
  Alcotest.(check (list int)) "works" [ 1 ] (run_all pool [ (fun () -> 1) ]);
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool

(* --- dispatcher wave reports --- *)

let test_dispatcher_wave_report () =
  let engine, _ = make_engine () in
  let report = ok (Engine.Exlengine.recompute engine) in
  let waves = report.Engine.Dispatcher.waves in
  Alcotest.(check bool) "at least one wave" true (List.length waves >= 1);
  List.iter
    (fun (w : Engine.Dispatcher.wave_report) ->
      Alcotest.(check bool) "wave not empty" true
        (w.Engine.Dispatcher.wave_subgraphs <> []);
      Alcotest.(check bool) "wall clock sane" true
        (w.Engine.Dispatcher.wave_seconds >= 0.))
    waves;
  (* every recomputed cube appears in exactly one wave subgraph *)
  let all_cubes =
    List.concat_map
      (fun (w : Engine.Dispatcher.wave_report) ->
        List.concat_map snd w.Engine.Dispatcher.wave_subgraphs)
      waves
  in
  Alcotest.(check (list string)) "waves cover the recomputation"
    (List.sort String.compare report.Engine.Dispatcher.recomputed)
    (List.sort String.compare all_cubes)

(* The tgd target converts its solution back to cubes; a relation with
   two measures for one key is an [Error] of [execute], not an
   exception. *)
let test_chase_target_clash_is_error () =
  let mapping, registry = clashing_target () in
  check_names_shared "Target.chase.execute"
    (Engine.Target.chase.Engine.Target.execute mapping registry)

let suite =
  [
    ("target: chase execute returns clashing writes as an Error", `Quick, test_chase_target_clash_is_error);
    ("determination: affected from PDR", `Quick, test_affected_from_pdr);
    ("determination: affected from RGDPPC", `Quick, test_affected_from_rgdppc);
    ("determination: affected empty", `Quick, test_affected_empty);
    ("determination: dependents", `Quick, test_dependents);
    ("determination: multi-program", `Quick, test_multi_program_sharing);
    ("determination: build subset program", `Quick, test_build_program_subset);
    ("determination: partition runs", `Quick, test_partition_groups_runs);
    ("determination: dot", `Quick, test_dot_output);
    ("dispatcher: capability assignment", `Quick, test_assignment_respects_capabilities);
    ("dispatcher: override", `Quick, test_assignment_override);
    ("dispatcher: unsupported override rejected", `Quick, test_assignment_override_rejected_when_unsupported);
    ("historicity: as-of reads", `Quick, test_historicity_as_of);
    ("facade: end to end", `Quick, test_facade_end_to_end);
    ("facade: incremental recomputation", `Quick, test_facade_incremental);
    ("facade: translation cache", `Quick, test_facade_translation_cache);
    ("facade: multi-target split", `Quick, test_facade_multi_target_split);
    ("facade: parallel dispatch", `Quick, test_facade_parallel_dispatch);
    ("facade: history versions", `Quick, test_facade_history_versions);
    ("facade: store persistence", `Quick, test_facade_store_persistence);
    ("facade: rejects unknown elementary", `Quick, test_facade_rejects_unknown_elementary);
    ("facade: load rejects a measure out of domain", `Quick, test_facade_rejects_measure_out_of_domain);
    ("pool: run_all preserves order", `Quick, test_pool_run_all_order);
    ("pool: zero-size runs inline", `Quick, test_pool_zero_size);
    ("pool: exceptions propagate", `Quick, test_pool_exception_propagates);
    ("pool: shutdown idempotent", `Quick, test_pool_shutdown_idempotent);
    ("dispatcher: wave report", `Quick, test_dispatcher_wave_report);
    QCheck_alcotest.to_alcotest prop_engine_matches_interp;
    ("facade: load rejects a key out of domain", `Quick, test_facade_rejects_key_out_of_domain);
  ]
