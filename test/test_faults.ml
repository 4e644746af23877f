(* Fault-tolerant dispatch: deterministic fault injection through
   scripted plans — retry-then-succeed, fallback-to-next-target,
   quarantine-with-downstream-skip, timeouts, worker crashes — plus the
   failure-transparency property: when every cube keeps a fault-free
   capable target, injected faults never change the computed values. *)
open Matrix
open Helpers

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* --- fixture: two chains over elementary A and X ---

   B -> C is a dependent chain (C must be skipped when B is
   quarantined); Y is an independent sibling (it must survive any
   B-side outage). *)

let chain_program =
  "cube A(q: quarter);\ncube X(q: quarter);\nB := A + 1;\nC := 2 * B;\nY := X + 10;\n"

let quarters n = List.init n (fun i -> vq (2020 + (i / 4)) ((i mod 4) + 1))

let chain_data () =
  let series name base =
    cube_of name
      [ ("q", Domain.Period (Some Calendar.Quarter)) ]
      (List.mapi (fun i q -> [ q; vf (base +. float_of_int i) ]) (quarters 8))
  in
  [ series "A" 1.; series "X" 100. ]

let mk ?(program = chain_program) ?(data = chain_data ()) () =
  let d = Engine.Determination.create () in
  ok (Engine.Determination.register_source d ~name:"p" program);
  let store = Registry.create () in
  List.iter
    (fun c ->
      let schema = Option.get (Engine.Determination.schema d (Cube.name c)) in
      Registry.add store Registry.Elementary (Cube.with_schema schema c))
    data;
  (d, store)

(* Backoff-free: these tests exercise logic, not waiting. *)
let fast_retry =
  { Engine.Dispatcher.default_retry with base_backoff = 0.; max_attempts = 3 }

(* Overrides split [B; C; Y] into three single-cube subgraphs. *)
let split_policy =
  {
    Engine.Dispatcher.priority = [ "sql"; "vector"; "etl" ];
    overrides = [ ("C", "vector") ];
  }

let run ?parallel ?faults ?(retry = fast_retry)
    ?(targets = Engine.Target.builtins) ?(policy = split_policy) (d, store) =
  Engine.Dispatcher.run ?parallel ?faults ~retry ~targets ~policy
    ~translation:(Engine.Translation.create ()) ~determination:d ~store
    ~affected:(Engine.Determination.derived_order d)
    ()

let check_values ~expected:(_, expected_store) ~got:(_, got_store) cubes =
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Registry.find_exn expected_store name)
        (Registry.find_exn got_store name))
    cubes

let baseline () =
  let ctx = mk () in
  ignore (ok (run ctx));
  ctx

let exec_error = Engine.Faults.Execute_error "injected"
let trans_error = Engine.Faults.Translate_error "injected"

(* --- retry-then-succeed --- *)

let test_clean_run () =
  let ctx = mk () in
  let report = ok (run ctx) in
  Alcotest.(check (list string)) "recomputed" [ "B"; "C"; "Y" ]
    report.Engine.Dispatcher.recomputed;
  Alcotest.(check int) "no failures" 0
    (List.length report.Engine.Dispatcher.failures);
  Alcotest.(check (list string)) "no quarantine" []
    report.Engine.Dispatcher.quarantined;
  Alcotest.(check (list string)) "no skips" [] report.Engine.Dispatcher.skipped;
  Alcotest.(check bool) "not degraded" false
    (Engine.Dispatcher.degraded report);
  List.iter
    (fun (s : Engine.Dispatcher.subgraph_report) ->
      Alcotest.(check int) "single attempt" 1 s.Engine.Dispatcher.attempts;
      Alcotest.(check int) "single translation" 1
        s.Engine.Dispatcher.translate_attempts)
    report.Engine.Dispatcher.subgraphs

let test_transient_execute_retried () =
  let faults =
    Engine.Faults.plan [ Engine.Faults.trigger ~times:1 Execute exec_error ]
  in
  let ctx = mk () in
  let report = ok (run ~faults ctx) in
  Alcotest.(check int) "fault fired" 1 (Engine.Faults.fired faults);
  Alcotest.(check (list string)) "nothing lost" [ "B"; "C"; "Y" ]
    report.Engine.Dispatcher.recomputed;
  Alcotest.(check int) "recovered: no failure reports" 0
    (List.length report.Engine.Dispatcher.failures);
  Alcotest.(check bool) "a retry happened" true
    (List.exists
       (fun (s : Engine.Dispatcher.subgraph_report) ->
         s.Engine.Dispatcher.attempts > 1)
       report.Engine.Dispatcher.subgraphs);
  check_values ~expected:(baseline ()) ~got:ctx [ "B"; "C"; "Y" ]

(* The first acceptance criterion: one transient Execute_error per
   subgraph — the run completes with failures = [], attempts > 1
   everywhere, and values identical to the fault-free run. *)
let test_transient_fault_per_subgraph () =
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~times:1 Execute exec_error;
        Engine.Faults.trigger ~cube:"C" ~times:1 Execute exec_error;
        Engine.Faults.trigger ~cube:"Y" ~times:1 Execute exec_error;
      ]
  in
  let ctx = mk () in
  let report = ok (run ~faults ctx) in
  Alcotest.(check int) "all faults fired" 3 (Engine.Faults.fired faults);
  Alcotest.(check int) "failures empty" 0
    (List.length report.Engine.Dispatcher.failures);
  Alcotest.(check int) "three subgraphs" 3
    (List.length report.Engine.Dispatcher.subgraphs);
  List.iter
    (fun (s : Engine.Dispatcher.subgraph_report) ->
      Alcotest.(check int)
        ("attempts for " ^ String.concat "," s.Engine.Dispatcher.cubes)
        2 s.Engine.Dispatcher.attempts)
    report.Engine.Dispatcher.subgraphs;
  check_values ~expected:(baseline ()) ~got:ctx [ "B"; "C"; "Y" ]

let test_transient_translate_retried () =
  let faults =
    Engine.Faults.plan
      [ Engine.Faults.trigger ~cube:"B" ~times:1 Translate trans_error ]
  in
  let ctx = mk () in
  let report = ok (run ~faults ctx) in
  Alcotest.(check int) "no failure reports" 0
    (List.length report.Engine.Dispatcher.failures);
  Alcotest.(check bool) "translate retried" true
    (List.exists
       (fun (s : Engine.Dispatcher.subgraph_report) ->
         s.Engine.Dispatcher.translate_attempts > 1)
       report.Engine.Dispatcher.subgraphs);
  check_values ~expected:(baseline ()) ~got:ctx [ "B"; "C"; "Y" ]

let test_injected_timeout_retried () =
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~times:1 Execute
          (Engine.Faults.Timeout 0.);
      ]
  in
  let ctx = mk () in
  let report = ok (run ~faults ctx) in
  Alcotest.(check int) "no failure reports" 0
    (List.length report.Engine.Dispatcher.failures);
  check_values ~expected:(baseline ()) ~got:ctx [ "B"; "C"; "Y" ]

(* --- fallback to the next capable target --- *)

let test_persistent_fault_falls_back () =
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~target:"sql"
          ~times:Engine.Faults.always Execute exec_error;
      ]
  in
  let ctx = mk () in
  let report = ok (run ~faults ctx) in
  Alcotest.(check bool) "not degraded" false (Engine.Dispatcher.degraded report);
  (match report.Engine.Dispatcher.failures with
  | [ f ] ->
      Alcotest.(check string) "failed target" "sql" f.Engine.Faults.f_target;
      Alcotest.(check int) "exhausted attempts" 3 f.Engine.Faults.f_attempts;
      Alcotest.(check bool) "fell back to vector" true
        (f.Engine.Faults.f_resolution = Engine.Faults.Fell_back "vector")
  | fs -> Alcotest.failf "expected one failure report, got %d" (List.length fs));
  let b =
    List.find
      (fun (s : Engine.Dispatcher.subgraph_report) ->
        s.Engine.Dispatcher.cubes = [ "B" ])
      report.Engine.Dispatcher.subgraphs
  in
  Alcotest.(check string) "B computed by vector" "vector"
    b.Engine.Dispatcher.target;
  Alcotest.(check int) "3 failed + 1 good execute" 4 b.Engine.Dispatcher.attempts;
  check_values ~expected:(baseline ()) ~got:ctx [ "B"; "C"; "Y" ]

let test_fallback_retranslates () =
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~target:"sql"
          ~times:Engine.Faults.always Execute exec_error;
      ]
  in
  let ctx = mk () in
  let report = ok (run ~faults ctx) in
  let b =
    List.find
      (fun (s : Engine.Dispatcher.subgraph_report) ->
        s.Engine.Dispatcher.cubes = [ "B" ])
      report.Engine.Dispatcher.subgraphs
  in
  (* the artifact must be the fallback engine's, not the original's *)
  Alcotest.(check string) "artifact re-rendered for vector" "r"
    (Engine.Target.artifact_kind b.Engine.Dispatcher.artifact);
  Alcotest.(check bool) "translated on both engines" true
    (b.Engine.Dispatcher.translate_attempts >= 2)

let test_worker_crash_surfaces_and_falls_back () =
  let boom =
    {
      Engine.Target.name = "boom";
      supports = (fun _ -> true);
      translate = Engine.Target.sql.Engine.Target.translate;
      execute = (fun _ _ -> failwith "kaboom");
    }
  in
  let policy =
    { Engine.Dispatcher.priority = [ "boom"; "sql" ]; overrides = [] }
  in
  let ctx = mk () in
  let report =
    ok (run ~targets:(boom :: Engine.Target.builtins) ~policy ctx)
  in
  Alcotest.(check bool) "not degraded" false (Engine.Dispatcher.degraded report);
  (* no overrides: one subgraph holds all three cubes; it crashed on
     boom, then fell back to sql *)
  Alcotest.(check int) "one failed subgraph" 1
    (List.length report.Engine.Dispatcher.failures);
  List.iter
    (fun (f : Engine.Faults.failure_report) ->
      Alcotest.(check string) "crashing target" "boom" f.Engine.Faults.f_target;
      (match f.Engine.Faults.f_kind with
      | Engine.Faults.Worker_crash msg ->
          Alcotest.(check bool) "carries the exception" true
            (Astring_contains.contains msg "kaboom");
          Alcotest.(check bool) "carries the task label" true
            (Astring_contains.contains msg "boom")
      | k ->
          Alcotest.failf "expected Worker_crash, got %s"
            (Engine.Faults.kind_to_string k));
      Alcotest.(check bool) "fell back to sql" true
        (f.Engine.Faults.f_resolution = Engine.Faults.Fell_back "sql"))
    report.Engine.Dispatcher.failures;
  check_values ~expected:(baseline ()) ~got:ctx [ "B"; "C"; "Y" ]

(* --- quarantine and downstream skip --- *)

let test_quarantine_with_downstream_skip () =
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~times:Engine.Faults.always Execute
          exec_error;
      ]
  in
  let ctx = mk () in
  let report = ok (run ~faults ctx) in
  Alcotest.(check bool) "degraded, not an error" true
    (Engine.Dispatcher.degraded report);
  Alcotest.(check (list string)) "B quarantined" [ "B" ]
    report.Engine.Dispatcher.quarantined;
  Alcotest.(check (list string)) "C skipped downstream" [ "C" ]
    report.Engine.Dispatcher.skipped;
  Alcotest.(check (list string)) "Y still recomputed" [ "Y" ]
    report.Engine.Dispatcher.recomputed;
  (* B tried every capable target: sql, vector, etl *)
  Alcotest.(check (list string)) "fallback chain"
    [ "sql"; "vector"; "etl" ]
    (List.map
       (fun (f : Engine.Faults.failure_report) -> f.Engine.Faults.f_target)
       report.Engine.Dispatcher.failures);
  (match List.rev report.Engine.Dispatcher.failures with
  | last :: earlier ->
      Alcotest.(check bool) "last is quarantined" true
        (last.Engine.Faults.f_resolution = Engine.Faults.Quarantined);
      List.iter
        (fun (f : Engine.Faults.failure_report) ->
          Alcotest.(check bool) "earlier ones fell back" true
            (match f.Engine.Faults.f_resolution with
            | Engine.Faults.Fell_back _ -> true
            | Engine.Faults.Quarantined -> false))
        earlier
  | [] -> Alcotest.fail "expected failure reports");
  let _, store = ctx in
  Alcotest.(check bool) "no stale B in store" true
    (Registry.find store "B" = None);
  Alcotest.(check bool) "no stale C in store" true
    (Registry.find store "C" = None);
  check_values ~expected:(baseline ()) ~got:ctx [ "Y" ]

(* The second acceptance criterion: a permanent fault on a cube's only
   capable target completes degraded — quarantined and reported, not an
   exception. *)
let test_only_capable_target_quarantines () =
  let program = "cube A(q: quarter);\nS := stl_t(A);\n" in
  let data = [ List.hd (chain_data ()) ] in
  let ctx = mk ~program ~data () in
  (* only vector can run stl; etl lacks seasonal decomposition *)
  let targets = [ Engine.Target.vector; Engine.Target.etl_no_stl ] in
  let policy =
    { Engine.Dispatcher.priority = [ "vector"; "etl" ]; overrides = [] }
  in
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~target:"vector" ~times:Engine.Faults.always
          Execute exec_error;
      ]
  in
  let report = ok (run ~faults ~targets ~policy ctx) in
  Alcotest.(check (list string)) "S quarantined" [ "S" ]
    report.Engine.Dispatcher.quarantined;
  Alcotest.(check (list string)) "nothing recomputed" []
    report.Engine.Dispatcher.recomputed;
  match report.Engine.Dispatcher.failures with
  | [ f ] ->
      Alcotest.(check string) "only capable target" "vector"
        f.Engine.Faults.f_target;
      Alcotest.(check bool) "no fallback possible" true
        (f.Engine.Faults.f_resolution = Engine.Faults.Quarantined)
  | fs -> Alcotest.failf "expected one failure report, got %d" (List.length fs)

let test_subgraph_timeout () =
  (* a zero budget makes every (post-hoc timed) execute attempt a
     Timeout: everything attempted is quarantined, dependents skipped *)
  let retry =
    {
      fast_retry with
      Engine.Dispatcher.max_attempts = 2;
      subgraph_timeout = Some 0.;
    }
  in
  let ctx = mk () in
  let report = ok (run ~retry ctx) in
  Alcotest.(check (list string)) "attempted subgraphs quarantined"
    [ "B"; "Y" ] report.Engine.Dispatcher.quarantined;
  Alcotest.(check (list string)) "dependent skipped" [ "C" ]
    report.Engine.Dispatcher.skipped;
  Alcotest.(check bool) "every failure is a timeout" true
    (report.Engine.Dispatcher.failures <> []
    && List.for_all
         (fun (f : Engine.Faults.failure_report) ->
           match f.Engine.Faults.f_kind with
           | Engine.Faults.Timeout _ -> true
           | _ -> false)
         report.Engine.Dispatcher.failures)

let test_parallel_dispatch_with_faults () =
  (* same transient plan, parallel waves: same values, same recovery *)
  let mk_faults () =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~times:1 Execute exec_error;
        Engine.Faults.trigger ~cube:"Y" ~times:1 Execute exec_error;
      ]
  in
  with_pool ~size:2 (fun pool ->
      let ctx = mk () in
      let report =
        ok
          (Engine.Dispatcher.run ~parallel:true ~pool
             ~faults:(mk_faults ()) ~retry:fast_retry
             ~targets:Engine.Target.builtins ~policy:split_policy
             ~translation:(Engine.Translation.create ())
             ~determination:(fst ctx) ~store:(snd ctx)
             ~affected:(Engine.Determination.derived_order (fst ctx))
             ())
      in
      Alcotest.(check int) "no failure reports" 0
        (List.length report.Engine.Dispatcher.failures);
      check_values ~expected:(baseline ()) ~got:ctx [ "B"; "C"; "Y" ])

(* --- the pool's per-task outcomes --- *)

let test_pool_try_all_labels_crashes () =
  with_pool ~size:2 (fun pool ->
      let outcomes =
        Engine.Pool.try_all pool
          [
            ("one", fun () -> 1);
            ("bad", fun () -> failwith "x");
            ("three", fun () -> 3);
          ]
      in
      match outcomes with
      | [ Ok 1; Error ("bad", Failure msg); Ok 3 ] when msg = "x" -> ()
      | _ -> Alcotest.fail "per-task outcomes lost or out of order")

let test_pool_try_all_never_raises () =
  with_pool ~size:2 (fun pool ->
      let outcomes =
        Engine.Pool.try_all pool
          [
            ("a", fun () -> failwith "a");
            ("b", fun () -> failwith "b");
            ("c", fun () -> 7);
          ]
      in
      Alcotest.(check int) "all outcomes present" 3 (List.length outcomes);
      Alcotest.(check int) "both crashes captured" 2
        (List.length
           (List.filter (function Error _ -> true | Ok _ -> false) outcomes));
      (* and the pool survives for the next burst *)
      Alcotest.(check (list int)) "alive" [ 9 ]
        (run_all pool [ (fun () -> 9) ]))

(* --- fault plans --- *)

let test_plan_times_exhaustion () =
  let p =
    Engine.Faults.plan [ Engine.Faults.trigger ~times:2 Execute exec_error ]
  in
  let check () =
    Engine.Faults.check p ~stage:Engine.Faults.Execute ~target:"sql"
      ~cubes:[ "B" ]
  in
  Alcotest.(check bool) "fires 1st" true (check () <> None);
  Alcotest.(check bool) "fires 2nd" true (check () <> None);
  Alcotest.(check bool) "exhausted" true (check () = None);
  Alcotest.(check int) "fired count" 2 (Engine.Faults.fired p);
  Engine.Faults.reset p;
  Alcotest.(check bool) "reset restores budget" true (check () <> None)

let test_plan_matching () =
  let p =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~target:"sql" ~cube:"B" ~times:Engine.Faults.always
          Execute exec_error;
      ]
  in
  let check ~target ~cubes stage =
    Engine.Faults.check p ~stage ~target ~cubes
  in
  Alcotest.(check bool) "matches subgraph containing B on sql" true
    (check ~target:"sql" ~cubes:[ "A"; "B" ] Engine.Faults.Execute <> None);
  Alcotest.(check bool) "other target" true
    (check ~target:"vector" ~cubes:[ "B" ] Engine.Faults.Execute = None);
  Alcotest.(check bool) "other cube" true
    (check ~target:"sql" ~cubes:[ "C" ] Engine.Faults.Execute = None);
  Alcotest.(check bool) "other stage" true
    (check ~target:"sql" ~cubes:[ "B" ] Engine.Faults.Translate = None)

let test_plan_probability_deterministic () =
  let mk seed =
    Engine.Faults.plan ~seed
      [
        Engine.Faults.trigger ~times:Engine.Faults.always ~probability:0.5
          Execute exec_error;
      ]
  in
  let firing_pattern p =
    List.init 32 (fun _ ->
        Engine.Faults.check p ~stage:Engine.Faults.Execute ~target:"sql"
          ~cubes:[ "B" ]
        <> None)
  in
  let a = firing_pattern (mk 7) and b = firing_pattern (mk 7) in
  Alcotest.(check (list bool)) "same seed, same faults" a b;
  Alcotest.(check bool) "p=0.5 actually mixes" true
    (List.mem true a && List.mem false a);
  let never =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~times:Engine.Faults.always ~probability:0.
          Execute exec_error;
      ]
  in
  Alcotest.(check bool) "p=0 never fires" true (firing_pattern never = List.init 32 (fun _ -> false))

let test_plan_text_roundtrip () =
  let text =
    "# drill: flaky sql link, dead etl\n\
     seed 42\n\
     fault execute sql GDP execute-error times=2 p=0.5 msg=flaky link\n\
     fault translate * * translate-error times=1\n\
     fault execute etl * worker-crash always\n\
     fault execute * TOTAL timeout times=3\n"
  in
  let p = ok (Engine.Faults.of_string text) in
  Alcotest.(check int) "seed" 42 (Engine.Faults.seed p);
  Alcotest.(check int) "triggers" 4 (List.length (Engine.Faults.triggers p));
  (match Engine.Faults.triggers p with
  | first :: _ ->
      Alcotest.(check bool) "msg keeps spaces" true
        (first.Engine.Faults.t_kind
        = Engine.Faults.Execute_error "flaky link");
      Alcotest.(check bool) "probability parsed" true
        (first.Engine.Faults.t_probability = 0.5)
  | [] -> Alcotest.fail "no triggers");
  (* canonical text survives a round trip *)
  let canon = Engine.Faults.to_string p in
  let p2 = ok (Engine.Faults.of_string canon) in
  Alcotest.(check bool) "round trip" true
    (Engine.Faults.seed p2 = Engine.Faults.seed p
    && Engine.Faults.triggers p2 = Engine.Faults.triggers p)

let test_plan_parse_errors () =
  (match Engine.Faults.of_string "fault bogus * * execute-error\n" with
  | Error msg ->
      Alcotest.(check bool) "names the stage" true
        (Astring_contains.contains msg "bogus")
  | Ok _ -> Alcotest.fail "expected parse error");
  (match Engine.Faults.of_string "fault execute * * exploding-rainbow\n" with
  | Error msg ->
      Alcotest.(check bool) "names the kind" true
        (Astring_contains.contains msg "exploding-rainbow")
  | Ok _ -> Alcotest.fail "expected parse error");
  match Engine.Faults.of_string "seed many\n" with
  | Error msg ->
      Alcotest.(check bool) "names the seed" true
        (Astring_contains.contains msg "seed")
  | Ok _ -> Alcotest.fail "expected parse error"

(* --- backoff --- *)

let test_backoff_deterministic_and_capped () =
  let retry =
    {
      Engine.Dispatcher.default_retry with
      base_backoff = 0.1;
      backoff_multiplier = 2.;
      max_backoff = 0.3;
      jitter = 0.;
    }
  in
  let d n =
    Engine.Dispatcher.backoff_duration ~retry ~seed:1 ~key:"sql/B" ~attempt:n
  in
  Alcotest.check floats "attempt 1" 0.1 (d 1);
  Alcotest.check floats "attempt 2 doubles" 0.2 (d 2);
  Alcotest.check floats "attempt 3 capped" 0.3 (d 3);
  Alcotest.check floats "attempt 4 capped" 0.3 (d 4);
  let jittered =
    { retry with Engine.Dispatcher.jitter = 0.5; base_backoff = 0.1 }
  in
  let j n key =
    Engine.Dispatcher.backoff_duration ~retry:jittered ~seed:1 ~key ~attempt:n
  in
  Alcotest.check floats "jitter is deterministic" (j 2 "sql/B") (j 2 "sql/B");
  Alcotest.(check bool) "jitter within [half, full]" true
    (j 2 "sql/B" >= 0.1 && j 2 "sql/B" <= 0.2);
  Alcotest.(check bool) "different subgraphs desynchronize" true
    (j 2 "sql/B" <> j 2 "sql/Y")

let test_uniform_range_and_determinism () =
  let us =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun key -> List.init 5 (fun n -> Engine.Faults.uniform ~seed ~key n))
          [ "a"; "sql/B"; "vector/C,Y" ])
      [ 0; 1; 42 ]
  in
  Alcotest.(check bool) "all in [0,1)" true
    (List.for_all (fun u -> u >= 0. && u < 1.) us);
  Alcotest.check floats "deterministic"
    (Engine.Faults.uniform ~seed:9 ~key:"k" 3)
    (Engine.Faults.uniform ~seed:9 ~key:"k" 3);
  Alcotest.(check bool) "keys decorrelate" true
    (Engine.Faults.uniform ~seed:9 ~key:"k" 3
    <> Engine.Faults.uniform ~seed:9 ~key:"l" 3)

(* --- assignment edge cases --- *)

let test_assign_override_unknown_target () =
  let d, _ = mk () in
  let policy =
    {
      Engine.Dispatcher.priority = [ "sql" ];
      overrides = [ ("B", "mainframe") ];
    }
  in
  match
    Engine.Dispatcher.assign ~targets:Engine.Target.builtins ~policy d "B"
  with
  | Error msg ->
      Alcotest.(check bool) "names the unknown target" true
        (Astring_contains.contains msg "mainframe")
  | Ok t -> Alcotest.failf "expected rejection, got %s" t

let test_assign_no_capable_target () =
  let program = "cube A(q: quarter);\nS := stl_t(A);\n" in
  let d, _ = mk ~program ~data:[ List.hd (chain_data ()) ] () in
  let policy = { Engine.Dispatcher.priority = [ "etl" ]; overrides = [] } in
  match
    Engine.Dispatcher.assign ~targets:Engine.Target.builtins ~policy d "S"
  with
  | Error msg ->
      Alcotest.(check bool) "explains" true
        (Astring_contains.contains msg "no target")
  | Ok t -> Alcotest.failf "expected rejection, got %s" t

let test_run_fails_on_assignment_error () =
  (* a static capability gap is a configuration error, not a fault:
     the run refuses to start rather than degrading *)
  let program = "cube A(q: quarter);\nS := stl_t(A);\n" in
  let ctx = mk ~program ~data:[ List.hd (chain_data ()) ] () in
  let policy = { Engine.Dispatcher.priority = [ "etl" ]; overrides = [] } in
  match run ~policy ctx with
  | Error msg ->
      Alcotest.(check bool) "explains" true
        (Astring_contains.contains msg "no target")
  | Ok _ -> Alcotest.fail "expected a configuration error"

(* --- reporting --- *)

let test_failure_summary_text () =
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~times:Engine.Faults.always Execute
          exec_error;
      ]
  in
  let ctx = mk () in
  let report = ok (run ~faults ctx) in
  let summary = Engine.Dispatcher.failure_summary report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (Astring_contains.contains summary needle))
    [ "quarantined: B"; "skipped"; "C"; "execute error: injected"; "sql" ];
  let clean = ok (run (mk ())) in
  Alcotest.(check string) "clean summary is empty" ""
    (Engine.Dispatcher.failure_summary clean)

let test_translation_cache_not_poisoned () =
  let translation = Engine.Translation.create () in
  let d, store = mk () in
  let affected = Engine.Determination.derived_order d in
  let run_with ?faults () =
    Engine.Dispatcher.run ?faults ~retry:fast_retry
      ~targets:Engine.Target.builtins ~policy:split_policy ~translation
      ~determination:d ~store ~affected ()
  in
  let faults =
    Engine.Faults.plan
      [ Engine.Faults.trigger ~cube:"B" ~times:1 Translate trans_error ]
  in
  ignore (ok (run_with ~faults ()));
  let misses = Engine.Translation.cache_misses translation in
  ignore (ok (run_with ()));
  Alcotest.(check int) "second run translates nothing" misses
    (Engine.Translation.cache_misses translation)

(* --- the facade under faults --- *)

let facade_config ?faults ?(policy = split_policy) () =
  {
    Engine.Exlengine.default_config with
    Engine.Exlengine.policy;
    retry = fast_retry;
    faults;
  }

let mk_facade ?faults () =
  let engine = Engine.Exlengine.create ~config:(facade_config ?faults ()) () in
  ok (Engine.Exlengine.register_program engine ~name:"p" chain_program);
  List.iter
    (fun c -> ok (Engine.Exlengine.load_elementary engine c))
    (chain_data ());
  engine

let test_facade_transparent_recovery () =
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~times:1 Execute exec_error;
        Engine.Faults.trigger ~cube:"Y" ~times:2 Translate trans_error;
      ]
  in
  let engine = mk_facade ~faults () in
  let report = ok (Engine.Exlengine.recompute engine) in
  Alcotest.(check int) "no failure reports" 0
    (List.length report.Engine.Dispatcher.failures);
  let clean = mk_facade () in
  ignore (ok (Engine.Exlengine.recompute clean));
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Option.get (Engine.Exlengine.cube clean name))
        (Option.get (Engine.Exlengine.cube engine name)))
    [ "B"; "C"; "Y" ]

let test_facade_degraded_history () =
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"B" ~times:Engine.Faults.always Execute
          exec_error;
      ]
  in
  let engine = mk_facade ~faults () in
  let report = ok (Engine.Exlengine.recompute engine) in
  Alcotest.(check bool) "degraded" true (Engine.Dispatcher.degraded report);
  let history = Engine.Exlengine.history engine in
  Alcotest.(check int) "no version for quarantined B" 0
    (Engine.Historicity.version_count history "B");
  Alcotest.(check int) "no version for skipped C" 0
    (Engine.Historicity.version_count history "C");
  Alcotest.(check int) "computed Y versioned" 1
    (Engine.Historicity.version_count history "Y");
  Alcotest.(check (list string)) "dirty set still cleared" []
    (Engine.Exlengine.changed engine)

(* The as-of view across a degraded run: a quarantined or skipped cube
   gets no new dated version, so [cube_as_of] at the later date still
   answers with the last successfully computed one. *)
let test_cube_as_of_survives_quarantine () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"Z" ~times:Engine.Faults.always Execute
          exec_error;
      ]
  in
  let config =
    facade_config ~faults ~policy:Engine.Dispatcher.default_policy ()
  in
  let engine = Engine.Exlengine.create ~config () in
  ok
    (Engine.Exlengine.register_program engine ~name:"p"
       "cube A(q: quarter);\nB := A + 1;\nC := B * 2;\n");
  ok
    (Engine.Exlengine.load_elementary engine
       (cube_of "A" [ ("q", quarter) ] [ [ vq 2024 1; vf 1. ] ]));
  let d1 = Calendar.Date.make ~year:2026 ~month:3 ~day:1 in
  let d2 = Calendar.Date.make ~year:2026 ~month:4 ~day:1 in
  ignore (ok (Engine.Exlengine.recompute_all ~as_of:d1 engine));
  let b_v1 = Option.get (Engine.Exlengine.cube engine "B") in
  (* Z arrives in a second program, so the first run never matched the
     trigger.  Once A is revised, B, C and Z share the dirty set and —
     under the default single-target policy — one subgraph, so the
     whole group quarantines on the second run. *)
  ok
    (Engine.Exlengine.register_program engine ~name:"q"
       "cube X(q: quarter);\nZ := X * 2;\n");
  ok
    (Engine.Exlengine.load_elementary engine
       (cube_of "X" [ ("q", quarter) ] [ [ vq 2024 1; vf 1. ] ]));
  ok
    (Engine.Exlengine.load_elementary engine
       (cube_of "A" [ ("q", quarter) ] [ [ vq 2024 1; vf 9. ] ]));
  let report = ok (Engine.Exlengine.recompute ~as_of:d2 engine) in
  Alcotest.(check bool) "second run degraded" true
    (Engine.Dispatcher.degraded report);
  let history = Engine.Exlengine.history engine in
  Alcotest.(check int) "B keeps its single d1 version" 1
    (Engine.Historicity.version_count history "B");
  Alcotest.(check int) "Z never versioned" 0
    (Engine.Historicity.version_count history "Z");
  Alcotest.check cube_eq "as-of d2 still answers the d1 cube" b_v1
    (Option.get (Engine.Exlengine.cube_as_of engine d2 "B"));
  Alcotest.(check bool) "as-of d2 has no Z" true
    (Option.is_none (Engine.Exlengine.cube_as_of engine d2 "Z"))

(* --- failure transparency, property-tested ---

   For any seeded fault plan whose triggers never touch the sql target
   (so every cube keeps at least one fault-free capable target), the
   dispatcher recomputes exactly the same values as a fault-free run:
   faults are invisible in the data, only in the report. *)

let qcheck_count =
  Helpers.qcheck_count ~var:"EXL_FAULT_QCHECK_COUNT" ~default:40

let arb_sql_free_plan =
  let open QCheck in
  let gen =
    Gen.(
      let trigger_gen =
        let* stage = oneofl [ Engine.Faults.Translate; Engine.Faults.Execute ] in
        let* target = oneofl [ "vector"; "etl" ] in
        let* cube = oneofl [ None; Some "B"; Some "C"; Some "Y" ] in
        let* kind =
          oneofl
            [
              Engine.Faults.Execute_error "injected";
              Engine.Faults.Translate_error "injected";
              Engine.Faults.Timeout 0.;
              Engine.Faults.Worker_crash "injected";
            ]
        in
        let* times = oneofl [ 1; 2; 3; Engine.Faults.always ] in
        let* probability = oneofl [ 1.0; 0.5 ] in
        return
          (Engine.Faults.trigger ~target ?cube ~times ~probability stage kind)
      in
      let* seed = 0 -- 1_000_000 in
      let* triggers = list_size (1 -- 6) trigger_gen in
      return (seed, triggers))
  in
  QCheck.make
    ~print:(fun (seed, triggers) ->
      Engine.Faults.to_string (Engine.Faults.plan ~seed triggers))
    gen

(* --- textual plans, property-tested ---

   [to_string] claims to be a canonical form that [of_string] inverts.
   Generate plans over the representable surface — dyadic probabilities
   (printed exactly by %g), single-space-separated messages (the parser
   rejoins [msg=] words with single spaces), and [Timeout 0.] (timeouts
   print no message and re-parse with a zero budget). *)

let arb_textual_plan =
  let open QCheck in
  let gen =
    Gen.(
      let msg_gen =
        let* words =
          list_size (1 -- 3) (oneofl [ "flaky"; "link"; "down"; "oom" ])
        in
        return (String.concat " " words)
      in
      let trigger_gen =
        let* stage = oneofl [ Engine.Faults.Translate; Engine.Faults.Execute ] in
        let* target = oneofl [ None; Some "sql"; Some "vector"; Some "etl" ] in
        let* cube = oneofl [ None; Some "GDP"; Some "B" ] in
        let* kind =
          oneof
            [
              map (fun m -> Engine.Faults.Translate_error m) msg_gen;
              map (fun m -> Engine.Faults.Execute_error m) msg_gen;
              return (Engine.Faults.Timeout 0.);
              map (fun m -> Engine.Faults.Worker_crash m) msg_gen;
            ]
        in
        let* times = oneofl [ 1; 2; 5; Engine.Faults.always ] in
        let* probability = oneofl [ 1.0; 0.5; 0.25; 0.75; 0.125 ] in
        return
          (Engine.Faults.trigger ?target ?cube ~times ~probability stage kind)
      in
      let* seed = 0 -- 1_000_000 in
      let* triggers = list_size (0 -- 8) trigger_gen in
      return (Engine.Faults.plan ~seed triggers))
  in
  QCheck.make ~print:Engine.Faults.to_string gen

let prop_plan_text_roundtrip =
  QCheck.Test.make ~count:qcheck_count
    ~name:"of_string (to_string p) reproduces the plan" arb_textual_plan
    (fun p ->
      let text = Engine.Faults.to_string p in
      match Engine.Faults.of_string text with
      | Error msg -> QCheck.Test.fail_reportf "re-parse failed: %s\n%s" msg text
      | Ok p' ->
          Engine.Faults.seed p' = Engine.Faults.seed p
          && Engine.Faults.triggers p' = Engine.Faults.triggers p
          && Engine.Faults.to_string p' = text)

let prop_failure_transparency =
  QCheck.Test.make ~count:qcheck_count
    ~name:"faults with a fault-free capable target never change values"
    arb_sql_free_plan
    (fun (seed, triggers) ->
      (* vector-first priority so injected faults actually bite *)
      let policy =
        {
          Engine.Dispatcher.priority = [ "vector"; "etl"; "sql" ];
          overrides = [];
        }
      in
      let faulted_ctx = mk () in
      let faults = Engine.Faults.plan ~seed triggers in
      let report =
        match run ~faults ~policy faulted_ctx with
        | Ok r -> r
        | Error msg -> QCheck.Test.fail_reportf "run failed: %s" msg
      in
      if Engine.Dispatcher.degraded report then
        QCheck.Test.fail_reportf "degraded despite fault-free sql:\n%s"
          (Engine.Dispatcher.failure_summary report);
      let clean_ctx = mk () in
      (match run ~policy clean_ctx with
      | Ok _ -> ()
      | Error msg -> QCheck.Test.fail_reportf "clean run failed: %s" msg);
      List.for_all
        (fun name ->
          Cube.equal_data ~eps:1e-7
            (Registry.find_exn (snd clean_ctx) name)
            (Registry.find_exn (snd faulted_ctx) name)
          || QCheck.Test.fail_reportf "cube %s differs under plan\n%s" name
               (Engine.Faults.to_string faults))
        [ "B"; "C"; "Y" ])

let suite =
  [
    ("clean run: empty failure report", `Quick, test_clean_run);
    ("retry: transient execute fault recovered", `Quick, test_transient_execute_retried);
    ("retry: one transient fault per subgraph (acceptance)", `Quick, test_transient_fault_per_subgraph);
    ("retry: transient translate fault recovered", `Quick, test_transient_translate_retried);
    ("retry: injected timeout recovered", `Quick, test_injected_timeout_retried);
    ("fallback: persistent fault moves subgraph to next target", `Quick, test_persistent_fault_falls_back);
    ("fallback: artifact re-translated for the new engine", `Quick, test_fallback_retranslates);
    ("fallback: worker crash surfaces with label", `Quick, test_worker_crash_surfaces_and_falls_back);
    ("quarantine: downstream skipped, siblings survive", `Quick, test_quarantine_with_downstream_skip);
    ("quarantine: only capable target (acceptance)", `Quick, test_only_capable_target_quarantines);
    ("timeout: zero budget quarantines attempted subgraphs", `Quick, test_subgraph_timeout);
    ("parallel: faults recovered on the pool too", `Quick, test_parallel_dispatch_with_faults);
    ("pool: try_all labels crashes per task", `Quick, test_pool_try_all_labels_crashes);
    ("pool: try_all never raises", `Quick, test_pool_try_all_never_raises);
    ("plan: times budget and reset", `Quick, test_plan_times_exhaustion);
    ("plan: trigger matching", `Quick, test_plan_matching);
    ("plan: probability is seeded and deterministic", `Quick, test_plan_probability_deterministic);
    ("plan: text round trip", `Quick, test_plan_text_roundtrip);
    ("plan: parse errors", `Quick, test_plan_parse_errors);
    ("backoff: deterministic jitter, exponential, capped", `Quick, test_backoff_deterministic_and_capped);
    ("backoff: uniform hash range and determinism", `Quick, test_uniform_range_and_determinism);
    ("assign: override naming unknown target", `Quick, test_assign_override_unknown_target);
    ("assign: no capable target", `Quick, test_assign_no_capable_target);
    ("run: assignment gap is a config error", `Quick, test_run_fails_on_assignment_error);
    ("report: failure summary text", `Quick, test_failure_summary_text);
    ("translation: cache not poisoned by injected faults", `Quick, test_translation_cache_not_poisoned);
    ("facade: transparent recovery", `Quick, test_facade_transparent_recovery);
    ("facade: degraded run records no history for dead cubes", `Quick, test_facade_degraded_history);
    ("facade: cube_as_of survives quarantine", `Quick, test_cube_as_of_survives_quarantine);
    QCheck_alcotest.to_alcotest prop_plan_text_roundtrip;
    QCheck_alcotest.to_alcotest prop_failure_transparency;
  ]
