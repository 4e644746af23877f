(* Incremental recomputation: dirty-set classification, update-batch
   parsing, the delta-seeded chase, and the engine's solution cache
   (docs/INCREMENTAL.md). *)
open Matrix
open Helpers

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let err what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg -> (msg : string)

(* --- determination: dirty sets on a diamond DAG --- *)

let diamond_determination () =
  let d = Engine.Determination.create () in
  ok
    (Engine.Determination.register_source d ~name:"diamond"
       "cube A(t: quarter);\nB := A + 1;\nC := 2 * A;\nD := B + C;\n");
  d

let test_dirty_set_elementary () =
  let d = diamond_determination () in
  let ds = Engine.Determination.dirty_set d ~changed:[ "A" ] in
  Alcotest.(check (list string)) "elementary" [ "A" ]
    ds.Engine.Determination.changed_elementary;
  Alcotest.(check (list string)) "no derived changed" []
    ds.Engine.Determination.changed_derived;
  Alcotest.(check (list string)) "whole diamond, D once"
    [ "B"; "C"; "D" ] ds.Engine.Determination.dirty_derived

let test_dirty_set_derived () =
  let d = diamond_determination () in
  let ds = Engine.Determination.dirty_set d ~changed:[ "B" ] in
  Alcotest.(check (list string)) "derived change reported distinctly" [ "B" ]
    ds.Engine.Determination.changed_derived;
  (* B's new content is the change: only its dependents recompute. *)
  Alcotest.(check (list string)) "B itself not recomputed" [ "D" ]
    ds.Engine.Determination.dirty_derived;
  Alcotest.(check (list string)) "affected agrees" [ "D" ]
    (Engine.Determination.affected d ~changed:[ "B" ])

let test_dirty_set_mixed () =
  let d = diamond_determination () in
  let ds = Engine.Determination.dirty_set d ~changed:[ "A"; "B" ] in
  Alcotest.(check (list string)) "kinds split" [ "A" ]
    ds.Engine.Determination.changed_elementary;
  Alcotest.(check (list string)) "kinds split derived" [ "B" ]
    ds.Engine.Determination.changed_derived;
  Alcotest.(check (list string)) "C and D dirty, B excluded"
    [ "C"; "D" ] ds.Engine.Determination.dirty_derived

(* --- update-batch text format --- *)

let test_update_parse () =
  let d = diamond_determination () in
  let schema_of = Engine.Determination.schema d in
  let batch =
    "# revisions for Q1\nset A 2024Q1 3.5\n\ndel A 2024Q2  # retract\n"
  in
  let updates = ok (Engine.Update.of_string ~schema_of batch) in
  Alcotest.(check int) "two updates" 2 (List.length updates);
  (match updates with
  | [ u1; u2 ] ->
      Alcotest.(check string) "set line" "set A 2024Q1 3.5"
        (Engine.Update.to_string u1);
      Alcotest.(check string) "del line" "del A 2024Q2"
        (Engine.Update.to_string u2)
  | _ -> Alcotest.fail "expected two updates");
  let check_err what text needle =
    let msg = err what (Engine.Update.of_string ~schema_of text) in
    Alcotest.(check bool)
      (what ^ ": " ^ msg)
      true
      (Astring_contains.contains msg needle)
  in
  check_err "unknown cube" "set X 2024Q1 1\n" "unknown cube";
  check_err "bad arity" "set A 2024Q1\n" "expects 2 value(s)";
  check_err "excess values" "set A 2024Q1 1 2\n" "expects 2 value(s), got 3";
  check_err "del arity" "del A 2024Q1 extra\n" "expects 1 value(s), got 2";
  check_err "missing cube" "set\n" "missing cube name";
  check_err "key domain" "set A nope 1\n" "out of domain";
  check_err "measure domain" "set A 2024Q1 north\n" "measure";
  check_err "unknown verb" "zap A 2024Q1\n" "unknown verb";
  (* errors carry the 1-based line number of the offending line *)
  check_err "line number" "set A 2024Q1 1\n\nset A oops 1\n" "line 3:";
  (* comments and blank lines alone make an empty, valid batch *)
  Alcotest.(check int) "comment-only batch is empty" 0
    (List.length (ok (Engine.Update.of_string ~schema_of "# nothing\n\n  \n")))

(* --- batch compaction (the server coalescer's merge step) --- *)

let update_line = Alcotest.testable Fmt.string String.equal
let lines us = List.map Engine.Update.to_string us

let test_compact_last_wins () =
  let u v = Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf v) in
  Alcotest.(check (list update_line))
    "three writes net to the last one"
    [ "set A 2024Q1 3" ]
    (lines (Engine.Update.concat [ [ u 1.; u 2.; u 3. ] ]))

let test_compact_set_del_cancel () =
  let k = [ vq 2024 1 ] in
  let set v = Engine.Update.set ~cube:"A" ~key:k (vf v) in
  let del = Engine.Update.remove ~cube:"A" ~key:k in
  Alcotest.(check (list update_line))
    "set then del nets to the del" [ "del A 2024Q1" ]
    (lines (Engine.Update.concat [ [ set 1.; del ] ]));
  Alcotest.(check (list update_line))
    "del then set nets to the set" [ "set A 2024Q1 2" ]
    (lines (Engine.Update.concat [ [ del; set 2. ] ]))

let test_compact_stable_idempotent () =
  let u cube q v = Engine.Update.set ~cube ~key:[ vq 2024 q ] (vf v) in
  let batch = [ u "B" 2 1.; u "A" 1 1.; u "B" 2 9.; u "A" 3 5.; u "A" 1 7. ] in
  let once = Engine.Update.concat [ batch ] in
  (* first-appearance order of the surviving keys, last value each *)
  Alcotest.(check (list update_line))
    "stable order, last value"
    [ "set B 2024Q2 9"; "set A 2024Q1 7"; "set A 2024Q3 5" ]
    (lines once);
  Alcotest.(check (list update_line))
    "idempotent" (lines once)
    (lines (Engine.Update.concat [ once ]))

let test_compact_value_aware_keys () =
  (* Int 2 and Float 2. address the same store key; compaction must
     identify them or interleaved writes replay in the wrong order. *)
  let a = Engine.Update.set ~cube:"A" ~key:[ vi 2 ] (vf 1.) in
  let b = Engine.Update.set ~cube:"A" ~key:[ vf 2. ] (vf 9.) in
  match Engine.Update.concat [ [ a; b ] ] with
  | [ { Engine.Update.action = Set v; _ } ] ->
      Alcotest.check value "last write survives" (vf 9.) v
  | us -> Alcotest.failf "expected one update, got %d" (List.length us)

let test_concat_across_batches () =
  let k = [ vq 2024 1 ] in
  let set c v = Engine.Update.set ~cube:c ~key:k (vf v) in
  let del c = Engine.Update.remove ~cube:c ~key:k in
  (* opposing updates queued by different clients cancel across the
     batch boundary; unrelated cubes keep their own last writes *)
  Alcotest.(check (list update_line))
    "merge of three queued batches"
    [ "set A 2024Q1 4"; "set B 2024Q1 2" ]
    (lines
       (Engine.Update.concat
          [ [ set "A" 1.; del "B" ]; [ set "B" 2.; del "A" ]; [ set "A" 4. ] ]));
  Alcotest.(check (list update_line)) "concat of empties" []
    (lines (Engine.Update.concat [ []; [] ]))

(* Applying the concat of queued batches equals applying them one by
   one — the equivalence the server's coalescer relies on. *)
let test_concat_equals_sequential_apply () =
  let mk () =
    let engine = Engine.Exlengine.create () in
    ok
      (Engine.Exlengine.register_program engine ~name:"p"
         "cube A(t: quarter);\nD := A + 1;\n");
    ok
      (Engine.Exlengine.load_elementary engine
         (cube_of "A"
            [ ("t", Domain.Period (Some Calendar.Quarter)) ]
            [ [ vq 2024 1; vf 1. ]; [ vq 2024 2; vf 2. ] ]));
    ignore (ok (Engine.Exlengine.recompute_all engine));
    ok (Engine.Exlengine.warm engine);
    engine
  in
  let set q v = Engine.Update.set ~cube:"A" ~key:[ vq 2024 q ] (vf v) in
  let del q = Engine.Update.remove ~cube:"A" ~key:[ vq 2024 q ] in
  let batches =
    [ [ set 1 10.; set 3 30. ]; [ del 3; set 2 20. ]; [ set 3 33.; del 1 ] ]
  in
  let sequential = mk () in
  List.iter
    (fun b -> ignore (ok (Engine.Exlengine.apply_updates sequential b)))
    batches;
  let coalesced = mk () in
  ignore
    (ok (Engine.Exlengine.apply_updates coalesced (Engine.Update.concat batches)));
  List.iter
    (fun name ->
      Alcotest.check cube_eq
        (name ^ " agrees")
        (Option.get (Engine.Exlengine.cube sequential name))
        (Option.get (Engine.Exlengine.cube coalesced name)))
    [ "A"; "D" ]

(* --- the delta-seeded chase --- *)

let mapping_of source ~cubes =
  let d = Engine.Determination.create () in
  ok (Engine.Determination.register_source d ~name:"m" source);
  ok (Engine.Translation.submapping d ~cubes)

let join_source =
  "cube A(t: quarter, r: string);\ncube B(t: quarter, r: string);\nJ := A * B;\n"

let join_registry () =
  let reg = Registry.create () in
  let a = cube_of "A" [ ("t", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      [ [ vq 2024 1; vs "n"; vf 2. ]; [ vq 2024 2; vs "n"; vf 3. ] ]
  in
  let b = cube_of "B" [ ("t", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      [ [ vq 2024 1; vs "n"; vf 10. ]; [ vq 2024 2; vs "n"; vf 20. ];
        [ vq 2024 3; vs "n"; vf 30. ] ]
  in
  Registry.add reg Registry.Elementary a;
  Registry.add reg Registry.Elementary b;
  reg

let solve mapping reg =
  let inst, _ = ok (Exchange.Chase.run mapping (Exchange.Instance.of_registry reg)) in
  inst

(* One repair of [solution] with a state of its own, as the first
   batch after a full run gets. *)
let incremental mapping ~solution ~deltas =
  Exchange.Chase.incremental
    ~state:(Exchange.Chase.create_incr_state ())
    mapping ~solution ~deltas

let check_relation_eq msg inst1 inst2 rel =
  Alcotest.check cube_eq msg
    (Exchange.Instance.cube_of_relation inst2 rel)
    (Exchange.Instance.cube_of_relation inst1 rel)

let test_chase_incremental_insert_only () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let deltas =
    [ ("A", { Exchange.Chase.added = [ [| vq 2024 3; vs "n"; vf 4. |] ]; removed = [] }) ]
  in
  let _, istats, _ =
    ok (incremental mapping ~solution ~deltas)
  in
  Alcotest.(check int) "insert-only fast path" 1
    istats.Exchange.Chase.strata_delta;
  Alcotest.(check int) "no rederivation" 0
    istats.Exchange.Chase.strata_rederived;
  (* scratch comparison on the updated source *)
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 3; vs "n" ]) (vf 4.);
  let scratch = solve mapping reg in
  check_relation_eq "J repaired" solution scratch "J";
  check_relation_eq "A source copy repaired" solution scratch "A"

let test_chase_incremental_removal () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let deltas =
    [ ("A", { Exchange.Chase.added = []; removed = [ [| vq 2024 2; vs "n"; vf 3. |] ] }) ]
  in
  let _, istats, _ =
    ok (incremental mapping ~solution ~deltas)
  in
  Alcotest.(check (pair int int)) "signed delta, no rederivation" (1, 0)
    (istats.Exchange.Chase.strata_delta, istats.Exchange.Chase.strata_rederived);
  Cube.remove (Registry.find_exn reg "A") (key [ vq 2024 2; vs "n" ]);
  let scratch = solve mapping reg in
  check_relation_eq "J repaired after deletion" solution scratch "J"

let test_chase_incremental_skips_unreached_strata () =
  (* Two levels: updating A touches only B's stratum; D (over C over E)
     lives in a stratum no delta reaches. *)
  let source =
    "cube A(t: quarter);\ncube E(t: quarter);\n\
     B := A + 1;\nC := 2 * E;\nD := C + 1;\n"
  in
  let mapping = mapping_of source ~cubes:[ "B"; "C"; "D" ] in
  let reg = Registry.create () in
  let quarter = Domain.Period (Some Calendar.Quarter) in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  Registry.add reg Registry.Elementary
    (cube_of "E" [ ("t", quarter) ] [ [ vq 2024 1; vf 5. ] ]);
  let solution = solve mapping reg in
  let deltas =
    [ ("A", { Exchange.Chase.added = [ [| vq 2024 2; vf 7. |] ]; removed = [] }) ]
  in
  let _, istats, _ =
    ok (incremental mapping ~solution ~deltas)
  in
  Alcotest.(check bool) "some stratum skipped outright" true
    (istats.Exchange.Chase.strata_skipped >= 1);
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 2 ]) (vf 7.);
  let scratch = solve mapping reg in
  List.iter (check_relation_eq "all targets agree" solution scratch)
    [ "B"; "C"; "D" ]

let test_chase_incremental_aggregation_revision () =
  let source = "cube A(t: quarter, r: string);\nS := sum(A, group by t);\n" in
  let mapping = mapping_of source ~cubes:[ "S" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let deltas =
    [
      ( "A",
        {
          Exchange.Chase.added = [ [| vq 2024 1; vs "n"; vf 9. |] ];
          removed = [ [| vq 2024 1; vs "n"; vf 2. |] ];
        } );
    ]
  in
  let _, istats, _ =
    ok (incremental mapping ~solution ~deltas)
  in
  Alcotest.(check (pair int int)) "group-scoped, no rederivation" (1, 0)
    (istats.Exchange.Chase.strata_delta, istats.Exchange.Chase.strata_rederived);
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 1; vs "n" ]) (vf 9.);
  let scratch = solve mapping reg in
  check_relation_eq "S repaired" solution scratch "S"

(* With persistent aggregation state the same revision takes the
   group-scoped path (no stratum rederived), and a second batch — the
   steady state, bags maintained rather than rebuilt — still matches a
   from-scratch run, including a deletion that empties a group. *)
let test_chase_incremental_aggregation_state () =
  let source = "cube A(t: quarter, r: string);\nS := sum(A, group by t);\n" in
  let mapping = mapping_of source ~cubes:[ "S" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let state = Exchange.Chase.create_incr_state () in
  let batch deltas =
    ok (Exchange.Chase.incremental ~state mapping ~solution ~deltas)
  in
  let _, istats1, _ =
    batch
      [
        ( "A",
          {
            Exchange.Chase.added = [ [| vq 2024 1; vs "n"; vf 9. |] ];
            removed = [ [| vq 2024 1; vs "n"; vf 2. |] ];
          } );
      ]
  in
  Alcotest.(check int) "no stratum rederived" 0
    istats1.Exchange.Chase.strata_rederived;
  Alcotest.(check int) "group-scoped stratum counted as delta" 1
    istats1.Exchange.Chase.strata_delta;
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 1; vs "n" ]) (vf 9.);
  check_relation_eq "S repaired (first batch)" solution (solve mapping reg) "S";
  let _, istats2, _ =
    batch
      [
        ( "A",
          { Exchange.Chase.added = []; removed = [ [| vq 2024 2; vs "n"; vf 3. |] ] }
        );
      ]
  in
  Alcotest.(check int) "steady state stays group-scoped" 0
    istats2.Exchange.Chase.strata_rederived;
  Cube.remove (Registry.find_exn reg "A") (key [ vq 2024 2; vs "n" ]);
  check_relation_eq "S repaired (deletion empties group)" solution
    (solve mapping reg) "S"

(* A blackbox (cumsum) tgd is not delta-decomposable: revising every
   point of one slice rederives the target, which must match a
   from-scratch chase of the revised source. *)
let test_chase_incremental_blackbox_slice () =
  let source = "cube A(q: quarter, r: string);\nT := cumsum(A);\n" in
  let mapping = mapping_of source ~cubes:[ "T" ] in
  let rows r offset =
    List.init 8 (fun i ->
        [| vq (2020 + (i / 4)) ((i mod 4) + 1); vs r; vf (offset +. float_of_int i) |])
  in
  let registry a0 =
    let reg = Registry.create () in
    Registry.add reg Registry.Elementary
      (cube_of "A"
         [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
         (List.map Array.to_list (rows "a" a0 @ rows "b" 100.)));
    reg
  in
  let solution = solve mapping (registry 0.) in
  let deltas =
    [ ("A", { Exchange.Chase.added = rows "a" 1.; removed = rows "a" 0. }) ]
  in
  let _, istats, _ = ok (incremental mapping ~solution ~deltas) in
  Alcotest.(check int) "blackbox stratum rederived" 1
    istats.Exchange.Chase.strata_rederived;
  let scratch = solve mapping (registry 1.) in
  List.iter (check_relation_eq "slice revision agrees" solution scratch) [ "A"; "T" ]

(* Both join sides revised at the same key in one batch: the repaired
   join must pair the two new measures, never an old one. *)
let test_chase_incremental_both_join_sides () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  let revise old_m new_m =
    {
      Exchange.Chase.added = [ [| vq 2024 1; vs "n"; vf new_m |] ];
      removed = [ [| vq 2024 1; vs "n"; vf old_m |] ];
    }
  in
  ignore
    (ok
       (incremental mapping ~solution
          ~deltas:[ ("A", revise 2. 3.); ("B", revise 10. 20.) ]));
  Alcotest.check value "3 * 20" (vf 60.)
    (Option.get
       (Cube.find
          (Exchange.Instance.cube_of_relation solution "J")
          (key [ vq 2024 1; vs "n" ])));
  Cube.set (Registry.find_exn reg "A") (key [ vq 2024 1; vs "n" ]) (vf 3.);
  Cube.set (Registry.find_exn reg "B") (key [ vq 2024 1; vs "n" ]) (vf 20.);
  check_relation_eq "J repaired" solution (solve mapping reg) "J"

(* Secondary indexes built on the cached solution must stay consistent
   through the in-place insert/remove traffic of a repair: every
   [ensure_index] bucket equals a fresh scan of its relation. *)
let test_chase_incremental_keeps_indexes () =
  let mapping =
    (check_ok (Mappings.Generate.of_source Helpers.overview_program))
      .Mappings.Generate.mapping
  in
  let reg = Helpers.overview_registry ~years:2 () in
  let solution = solve mapping reg in
  let indexed =
    List.filter_map
      (fun (schema : Schema.t) ->
        if Array.length schema.Schema.dims = 0 then None
        else begin
          Exchange.Instance.ensure_index solution schema.Schema.name [ 0 ];
          Some schema.Schema.name
        end)
      mapping.Mappings.Mapping.target
  in
  let k = [ vq 2021 2; vs "north" ] in
  let old_fact =
    List.find
      (fun f -> Tuple.equal (Tuple.of_array (Array.sub f 0 2)) (key k))
      (Exchange.Instance.facts solution "RGDPPC")
  in
  let new_m = Value.to_float_exn old_fact.(2) *. 1.07 in
  let deltas =
    [
      ( "RGDPPC",
        {
          Exchange.Chase.added = [ Array.of_list (k @ [ vf new_m ]) ];
          removed = [ old_fact ];
        } );
    ]
  in
  ignore (ok (incremental mapping ~solution ~deltas));
  Cube.set (Registry.find_exn reg "RGDPPC") (key k) (vf new_m);
  let scratch = solve mapping reg in
  List.iter
    (fun name ->
      check_relation_eq (name ^ " repaired") solution scratch name;
      (* the repair may add indexes of its own; ours must survive *)
      Alcotest.(check bool) (name ^ " still indexed") true
        (List.mem [ 0 ] (Exchange.Instance.indexed_positions solution name));
      let facts = Exchange.Instance.facts solution name in
      List.iter
        (fun fact ->
          let bucket =
            Exchange.Instance.lookup_index solution name [ 0 ] [ fact.(0) ]
          in
          let scan = List.filter (fun f -> Value.equal f.(0) fact.(0)) facts in
          Alcotest.(check (list (array value)))
            (name ^ " bucket == scan")
            (List.sort compare scan) (List.sort compare bucket))
        facts)
    indexed

(* An empty delta, and a delta that only re-inserts facts already
   present, change nothing: every stratum is skipped and no fact is
   derived. *)
let test_chase_incremental_empty_delta () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let reg = join_registry () in
  let solution = solve mapping reg in
  List.iter
    (fun deltas ->
      let stats, istats, _ =
        ok (incremental mapping ~solution ~deltas)
      in
      Alcotest.(check int) "no input facts" 0 istats.Exchange.Chase.input_facts;
      Alcotest.(check int) "every stratum skipped"
        istats.Exchange.Chase.strata_total istats.Exchange.Chase.strata_skipped;
      Alcotest.(check int) "no work" 0 stats.Exchange.Chase.tuples_generated;
      List.iter
        (check_relation_eq "solution unchanged" solution (solve mapping reg))
        [ "A"; "B"; "J" ])
    [
      [];
      [
        ( "A",
          { Exchange.Chase.added = [ [| vq 2024 1; vs "n"; vf 2. |] ]; removed = [] }
        );
      ];
    ]

(* A traced batch puts the application of its input deltas in a
   [chase.incr.input] span of its own, ahead of the strata, counting
   the facts that really changed: re-inserting a present fact is no
   change. *)
let test_chase_incremental_input_span () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let solution = solve mapping (join_registry ()) in
  let fact q m = [| vq 2024 q; vs "n"; vf m |] in
  let deltas =
    [
      ("A", { Exchange.Chase.added = [ fact 3 4.; fact 1 2. ]; removed = [ fact 2 3. ] });
      ("B", { Exchange.Chase.added = [ fact 4 40. ]; removed = [] });
    ]
  in
  let c = Obs.create () in
  let _, istats, _ =
    Obs.with_collector c (fun () -> ok (incremental mapping ~solution ~deltas))
  in
  Alcotest.(check int) "input facts" 3 istats.Exchange.Chase.input_facts;
  let spans = Obs.Trace.spans c.Obs.trace in
  let named n = List.filter (fun s -> s.Obs.Trace.name = n) spans in
  match (named "chase.incr.input", named "chase.incremental") with
  | [ input ], [ strata ] ->
      Alcotest.(check (option string)) "delta_facts" (Some "3")
        (List.assoc_opt "delta_facts" input.Obs.Trace.attrs);
      Alcotest.(check bool) "opens before the strata" true
        (input.Obs.Trace.id < strata.Obs.Trace.id)
  | inputs, _ ->
      Alcotest.failf "expected one chase.incr.input span, got %d"
        (List.length inputs)

(* --- signed-delta repair: derivation counts --- *)

let hand_mapping ~source ~target t_tgds =
  {
    Mappings.Mapping.source;
    target = source @ target;
    st_tgds = [];
    t_tgds;
    egds = [];
  }

(* The atoms R(q, m) and R(q, r, m). *)
let qm rel = atom rel [ var "q"; var "m" ]
let qrm rel = atom rel [ var "q"; var "r"; var "m" ]

let q_schema name ~extra =
  Schema.make ~name
    ~dims:(("q", Domain.Period (Some Calendar.Quarter)) :: extra)
    ()

let source_instance mapping facts =
  let inst = Exchange.Instance.create () in
  List.iter (Exchange.Instance.add_relation inst)
    mapping.Mappings.Mapping.source;
  List.iter
    (fun (rel, f) -> ignore (Exchange.Instance.insert inst rel f : bool))
    facts;
  inst

let solve_facts mapping facts =
  fst (ok (Exchange.Chase.run mapping (source_instance mapping facts)))

(* A solution over hand-written source facts, repaired with state batch
   by batch; each batch is checked against a chase of the revised
   facts on [rels] and returns its stats and net changes. *)
let signed_fixture mapping facts ~rels =
  let facts = ref facts in
  let solution = solve_facts mapping !facts in
  let state = Exchange.Chase.create_incr_state () in
  let batch deltas =
    let _, istats, changes =
      ok (Exchange.Chase.incremental ~state mapping ~solution ~deltas)
    in
    List.iter
      (fun (rel, { Exchange.Chase.added; removed }) ->
        facts :=
          List.filter (fun (r, f) -> r <> rel || not (List.mem f removed)) !facts
          @ List.map (fun f -> (rel, f)) added)
      deltas;
    List.iter
      (check_relation_eq "equals scratch" solution (solve_facts mapping !facts))
      rels;
    (istats, changes)
  in
  (solution, batch)

let removal rel f = (rel, { Exchange.Chase.added = []; removed = [ f ] })

(* A projecting tgd derives P(q, 1) once per A fact of quarter q: the
   fact must survive losing one of its two derivations and go with the
   second. *)
let test_signed_two_derivations () =
  let mapping =
    hand_mapping
      ~source:[ q_schema "A" ~extra:[ ("r", Domain.String) ] ]
      ~target:[ q_schema "P" ~extra:[] ]
      [ tl [ qrm "A" ] (atom "P" [ var "q"; num 1. ]) ]
  in
  let a q r m = [| vq 2024 q; vs r; vf m |] in
  let solution, batch =
    signed_fixture mapping ~rels:[ "P" ]
      [ ("A", a 1 "n" 2.); ("A", a 1 "s" 3.); ("A", a 2 "n" 4.) ]
  in
  let remove f =
    let istats, changes = batch [ removal "A" f ] in
    Alcotest.(check (pair int int)) "(delta, rederived) strata" (1, 0)
      (istats.Exchange.Chase.strata_delta, istats.Exchange.Chase.strata_rederived);
    List.assoc_opt "P" changes
  in
  let has_p1 () = Exchange.Instance.mem solution "P" [| vq 2024 1; vi 1 |] in
  Alcotest.(check bool) "P(2024Q1) derived twice" true (has_p1 ());
  let first = remove (a 1 "n" 2.) in
  Alcotest.(check bool) "survives losing one derivation" true (has_p1 ());
  Alcotest.(check bool) "no change reported for P" true (first = None);
  let second = remove (a 1 "s" 3.) in
  Alcotest.(check bool) "goes with the second" false (has_p1 ());
  Alcotest.(check int) "one P fact removed" 1
    (List.length (Option.get second).Exchange.Chase.removed)

(* B is read before its tgd, so the statement order is no valid
   stratification; the chase orders by dependency instead (A → B and
   E → D at depth 1, B → C at depth 2).  Every tgd is tuple-level,
   and every batch — one whose A delta reaches C through B included —
   is repaired by signed delta. *)
let test_misordered_stratifies_by_dependency () =
  let one = q_schema ~extra:[] in
  let mapping =
    hand_mapping
      ~source:[ one "A"; q_schema "E" ~extra:[ ("r", Domain.String) ] ]
      ~target:[ one "B"; one "C"; one "D" ]
      [
        tl [ qm "B" ]
          (atom "C" [ var "q"; Mappings.Term.Binapp (Ops.Binop.Mul, num 2., var "m") ]);
        tl [ qm "A" ] (qm "B");
        tl [ qrm "E" ] (atom "D" [ var "q"; num 1. ]);
      ]
  in
  Alcotest.(check int) "two strata" 2
    (List.length (ok (Mappings.Stratify.strata mapping)));
  let a m = [| vq 2024 1; vf m |] and e r = [| vq 2024 1; vs r; vf 1. |] in
  let solution, batch =
    signed_fixture mapping ~rels:[ "B"; "C"; "D" ]
      [ ("A", a 5.); ("E", e "x"); ("E", e "y"); ("E", e "z") ]
  in
  let rederived deltas = (fst (batch deltas)).Exchange.Chase.strata_rederived in
  Alcotest.(check int) "E alone: signed" 0 (rederived [ removal "E" (e "x") ]);
  Alcotest.(check int) "A feeds B → C: signed" 0
    (rederived
       [
         ("A", { Exchange.Chase.added = [ a 6. ]; removed = [ a 5. ] });
         removal "E" (e "y");
       ]);
  Alcotest.(check int) "E alone again: signed" 0
    (rederived [ removal "E" (e "z") ]);
  Alcotest.(check bool) "D(2024Q1) gone with its last derivation" false
    (Exchange.Instance.mem solution "D" [| vq 2024 1; vi 1 |])

(* B and C feed each other (B joins A with C): the full chase and the
   incremental repair both refuse the mapping and name the relation. *)
let test_recursive_mapping_rejected () =
  let one = q_schema ~extra:[] in
  let mapping =
    hand_mapping ~source:[ one "A" ] ~target:[ one "B"; one "C" ]
      [ tl [ qm "A"; qm "C" ] (qm "B"); tl [ qm "B" ] (qm "C") ]
  in
  let source = source_instance mapping [ ("A", [| vq 2024 1; vf 1. |]) ] in
  let names_b what msg =
    Alcotest.(check bool)
      (what ^ ": " ^ msg)
      true
      (Astring_contains.contains msg "relation B depends on itself")
  in
  names_b "run" (err "run" (Exchange.Chase.run mapping source));
  let insert = { Exchange.Chase.added = [ [| vq 2024 2; vf 2. |] ]; removed = [] } in
  names_b "incremental"
    (err "incremental"
       (incremental mapping ~solution:source ~deltas:[ ("A", insert) ]));
  Alcotest.(check int) "solution untouched" 1
    (Exchange.Instance.cardinality source "A")

let test_signed_one_delta_per_relation () =
  let mapping = mapping_of join_source ~cubes:[ "J" ] in
  let solution = solve mapping (join_registry ()) in
  let add q =
    { Exchange.Chase.added = [ [| vq 2024 q; vs "n"; vf 1. |] ]; removed = [] }
  in
  let msg =
    err "two deltas for A"
      (incremental mapping ~solution ~deltas:[ ("A", add 3); ("A", add 4) ])
  in
  Alcotest.(check bool) ("names the rule: " ^ msg) true
    (Astring_contains.contains msg "more than one delta")

(* --- the engine facade: apply_updates --- *)

let make_engine ?config source data =
  let engine = Engine.Exlengine.create ?config () in
  ok (Engine.Exlengine.register_program engine ~name:"main" source);
  List.iter
    (fun name ->
      ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data name)))
    (Registry.elementary_names data);
  engine

(* A from-scratch engine over the same final data: apply the batches
   directly to a copy of the registry, then recompute everything.
   Returns the engine and its recompute report. *)
let scratch_run source data batches =
  let data = Registry.copy data in
  List.iter
    (fun (u : Engine.Update.t) ->
      let cube = Registry.find_exn data u.Engine.Update.cube in
      let k = Tuple.of_list u.Engine.Update.key in
      match u.Engine.Update.action with
      | Engine.Update.Set v -> Cube.set cube k v
      | Engine.Update.Remove -> Cube.remove cube k)
    (List.concat batches);
  let engine = make_engine source data in
  (engine, ok (Engine.Exlengine.recompute_all engine))

let scratch_engine source data batches = fst (scratch_run source data batches)

let check_derived_agree what a b =
  List.iter
    (fun name ->
      match
        (Engine.Exlengine.cube a name, Engine.Exlengine.cube b name)
      with
      | Some ca, Some cb ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s agrees" what name)
            true
            (Cube.equal_data ~eps:1e-7 cb ca)
      | None, None -> ()
      | _ -> Alcotest.failf "%s: %s present on one side only" what name)
    (Engine.Determination.derived_order (Engine.Exlengine.determination a))

(* Two years: stl_t needs at least eight quarters. *)
let small_overview () = Helpers.overview_registry ~years:2 ()

let test_apply_updates_end_to_end () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let batch1 =
    [
      Engine.Update.set ~cube:"PDR"
        ~key:[ vd 2020 1 1; vs "north" ]
        (vf 1234.);
    ]
  in
  let r1 = ok (Engine.Exlengine.apply_updates engine batch1) in
  Alcotest.(check bool) "first batch builds the cache" false
    r1.Engine.Exlengine.cache_hit;
  Alcotest.(check (list string)) "updated" [ "PDR" ] r1.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "whole downstream recomputed"
    [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
    r1.Engine.Exlengine.recomputed;
  Alcotest.(check int) "one revision = one removed + one added" 2
    r1.Engine.Exlengine.facts_changed;
  let batch2 =
    [
      Engine.Update.set ~cube:"PDR"
        ~key:[ vd 2020 6 1; vs "south" ]
        (vf 4321.);
    ]
  in
  let r2 = ok (Engine.Exlengine.apply_updates engine batch2) in
  Alcotest.(check bool) "second batch hits the cache" true
    r2.Engine.Exlengine.cache_hit;
  Alcotest.(check bool) "incremental work bounded" true
    (r2.Engine.Exlengine.facts_rederived < r2.Engine.Exlengine.total_facts);
  check_derived_agree "after two batches" engine
    (scratch_engine Helpers.overview_program data [ batch1; batch2 ])

let test_apply_updates_empty_batch () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let before = Engine.Historicity.version_count (Engine.Exlengine.history engine) "GDP" in
  let r = ok (Engine.Exlengine.apply_updates engine []) in
  Alcotest.(check (list string)) "nothing updated" [] r.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "nothing recomputed" [] r.Engine.Exlengine.recomputed;
  Alcotest.(check int) "no facts changed" 0 r.Engine.Exlengine.facts_changed;
  Alcotest.(check int) "no new versions" before
    (Engine.Historicity.version_count (Engine.Exlengine.history engine) "GDP")

let test_apply_updates_noop_batch () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let k = key [ vd 2020 1 1; vs "north" ] in
  let current = Option.get (Cube.find (Registry.find_exn data "PDR") k) in
  let r =
    ok
      (Engine.Exlengine.apply_updates engine
         [ Engine.Update.set ~cube:"PDR" ~key:(Tuple.to_list k) current ])
  in
  Alcotest.(check (list string)) "no net change" [] r.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "no recomputation" []
    r.Engine.Exlengine.recomputed

let test_apply_updates_unused_cube () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source = "cube A(t: quarter);\ncube U(t: quarter);\nB := A + 1;\n" in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  Registry.add data Registry.Elementary
    (cube_of "U" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let b_before = Option.get (Engine.Exlengine.cube engine "B") in
  let r =
    ok
      (Engine.Exlengine.apply_updates engine
         [ Engine.Update.set ~cube:"U" ~key:[ vq 2024 2 ] (vf 9.) ])
  in
  Alcotest.(check (list string)) "store updated" [ "U" ] r.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "nothing depends on U" []
    r.Engine.Exlengine.recomputed;
  Alcotest.check cube_eq "B untouched" b_before
    (Option.get (Engine.Exlengine.cube engine "B"));
  Alcotest.check value "U stored" (vf 9.)
    (Option.get (Cube.find (Option.get (Engine.Exlengine.cube engine "U")) (key [ vq 2024 2 ])))

let test_apply_updates_repeated_key () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source = "cube A(t: quarter);\nB := A + 1;\n" in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let batch =
    [
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 5.);
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 7.);
    ]
  in
  let r = ok (Engine.Exlengine.apply_updates engine batch) in
  (* compacted: one removed (the original) + one added (the last write) *)
  Alcotest.(check int) "net change only" 2 r.Engine.Exlengine.facts_changed;
  Alcotest.check value "last write wins" (vf 8.)
    (Option.get
       (Cube.find (Option.get (Engine.Exlengine.cube engine "B")) (key [ vq 2024 1 ])));
  check_derived_agree "repeated key" engine (scratch_engine source data [ batch ])

let test_apply_updates_revert_within_batch () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source = "cube A(t: quarter);\nB := A + 1;\n" in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  (* a revision followed by a revision back to the original value, in
     the same batch: compaction nets the key to no change at all *)
  let batch =
    [
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 5.);
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 1.);
    ]
  in
  let r = ok (Engine.Exlengine.apply_updates engine batch) in
  Alcotest.(check (list string)) "no net update" [] r.Engine.Exlengine.updated;
  Alcotest.(check (list string)) "no recomputation" []
    r.Engine.Exlengine.recomputed;
  Alcotest.(check int) "no facts changed" 0 r.Engine.Exlengine.facts_changed;
  Alcotest.check value "B unchanged" (vf 2.)
    (Option.get
       (Cube.find (Option.get (Engine.Exlengine.cube engine "B")) (key [ vq 2024 1 ])))

let test_apply_updates_set_then_del () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source = "cube A(t: quarter);\nB := A + 1;\n" in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter) ] [ [ vq 2024 1; vf 1. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  (* set-then-del on an existing key nets to a pure removal; the same
     pair on a fresh key cancels out entirely *)
  let batch =
    [
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ] (vf 5.);
      Engine.Update.remove ~cube:"A" ~key:[ vq 2024 1 ];
      Engine.Update.set ~cube:"A" ~key:[ vq 2024 2 ] (vf 7.);
      Engine.Update.remove ~cube:"A" ~key:[ vq 2024 2 ];
    ]
  in
  let r = ok (Engine.Exlengine.apply_updates engine batch) in
  Alcotest.(check int) "one removal is the whole net delta" 1
    r.Engine.Exlengine.facts_changed;
  let b = Option.get (Engine.Exlengine.cube engine "B") in
  Alcotest.(check bool) "derived key retracted" true
    (Cube.find b (key [ vq 2024 1 ]) = None);
  Alcotest.(check int) "phantom key never materialized" 0 (Cube.cardinality b);
  check_derived_agree "set then del" engine (scratch_engine source data [ batch ])

let test_apply_updates_deletion_empties_stratum () =
  let quarter = Domain.Period (Some Calendar.Quarter) in
  let source =
    "cube A(t: quarter, r: string);\nS := sum(A, group by t);\nT := S * 2;\n"
  in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("t", quarter); ("r", Domain.String) ]
       [ [ vq 2024 1; vs "n"; vf 2. ]; [ vq 2024 1; vs "s"; vf 3. ] ]);
  let engine = make_engine source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  (* build the cache with a warm-up revision, then delete everything *)
  ignore
    (ok
       (Engine.Exlengine.apply_updates engine
          [ Engine.Update.set ~cube:"A" ~key:[ vq 2024 1; vs "n" ] (vf 4.) ]));
  let batch =
    [
      Engine.Update.remove ~cube:"A" ~key:[ vq 2024 1; vs "n" ];
      Engine.Update.remove ~cube:"A" ~key:[ vq 2024 1; vs "s" ];
    ]
  in
  let r = ok (Engine.Exlengine.apply_updates engine batch) in
  Alcotest.(check bool) "incremental path" true r.Engine.Exlengine.cache_hit;
  Alcotest.(check int) "S emptied" 0
    (Cube.cardinality (Option.get (Engine.Exlengine.cube engine "S")));
  Alcotest.(check int) "T emptied" 0
    (Cube.cardinality (Option.get (Engine.Exlengine.cube engine "T")))

let test_apply_updates_history_versions () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  let d1 = Calendar.Date.make ~year:2026 ~month:1 ~day:1 in
  let d2 = Calendar.Date.make ~year:2026 ~month:2 ~day:1 in
  ignore (ok (Engine.Exlengine.recompute ~as_of:d1 engine));
  let history = Engine.Exlengine.history engine in
  let gdp_v1 = Option.get (Engine.Exlengine.cube engine "GDP") in
  let r =
    ok
      (Engine.Exlengine.apply_updates ~as_of:d2 engine
         [
           Engine.Update.set ~cube:"RGDPPC" ~key:[ vq 2020 1; vs "north" ] (vf 99.);
         ])
  in
  (* RGDPPC feeds RGDP but not PQR: transitive invalidation versions
     only the affected cubes, the rest keep their history. *)
  Alcotest.(check (list string)) "PQR untouched"
    [ "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
    r.Engine.Exlengine.recomputed;
  Alcotest.(check int) "PQR keeps one version" 1
    (Engine.Historicity.version_count history "PQR");
  Alcotest.(check int) "GDP gained a version" 2
    (Engine.Historicity.version_count history "GDP");
  Alcotest.check cube_eq "as-of d1 still answers the old GDP" gdp_v1
    (Option.get (Engine.Exlengine.cube_as_of engine d1 "GDP"));
  Alcotest.(check bool) "as-of d2 sees the revision" false
    (Cube.equal_data ~eps:1e-7 gdp_v1
       (Option.get (Engine.Exlengine.cube_as_of engine d2 "GDP")))

let test_apply_updates_cache_invalidation () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let batch n =
    [ Engine.Update.set ~cube:"PDR" ~key:[ vd 2020 1 2; vs "north" ] (vf n) ]
  in
  ignore (ok (Engine.Exlengine.apply_updates engine (batch 1.)));
  let r2 = ok (Engine.Exlengine.apply_updates engine (batch 2.)) in
  Alcotest.(check bool) "cache warm" true r2.Engine.Exlengine.cache_hit;
  (* a wholesale load invalidates the cached solution *)
  ok (Engine.Exlengine.load_elementary engine (Registry.find_exn data "PDR"));
  ignore (ok (Engine.Exlengine.recompute engine));
  let r3 = ok (Engine.Exlengine.apply_updates engine (batch 3.)) in
  Alcotest.(check bool) "cache rebuilt after load" false
    r3.Engine.Exlengine.cache_hit

let test_apply_updates_validation_atomic () =
  let data = small_overview () in
  let engine = make_engine Helpers.overview_program data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let k = key [ vd 2020 1 1; vs "north" ] in
  let before = Option.get (Cube.find (Option.get (Engine.Exlengine.cube engine "PDR")) k) in
  let msg =
    err "derived target"
      (Engine.Exlengine.apply_updates engine
         [
           Engine.Update.set ~cube:"PDR" ~key:(Tuple.to_list k) (vf 0.);
           Engine.Update.set ~cube:"PQR" ~key:[ vq 2020 1; vs "north" ] (vf 0.);
         ])
  in
  Alcotest.(check bool) ("mentions derived: " ^ msg) true
    (Astring_contains.contains msg "derived");
  Alcotest.check value "whole batch rejected, store untouched" before
    (Option.get (Cube.find (Option.get (Engine.Exlengine.cube engine "PDR")) k));
  let msg =
    err "unknown cube"
      (Engine.Exlengine.apply_updates engine
         [ Engine.Update.set ~cube:"NOPE" ~key:[ vq 2020 1 ] (vf 0.) ])
  in
  Alcotest.(check bool) ("mentions cube: " ^ msg) true
    (Astring_contains.contains msg "NOPE")

(* The overview program plus a cube X no data was loaded for. *)
let rollback_source =
  Helpers.overview_program
  ^ "cube X(q: quarter, r: string);\nY := X + RGDPPC;\n"

(* A batch whose propagation fails: deleting the last quarter of PDR
   leaves GDP seven quarters, too short for stl_t, and the batch also
   brings the first data of X. *)
let failing_batch data =
  let last_quarter =
    List.filter_map
      (fun k ->
        if Value.compare (List.hd (Tuple.to_list k)) (vd 2021 10 1) >= 0 then
          Some (Engine.Update.remove ~cube:"PDR" ~key:(Tuple.to_list k))
        else None)
      (Cube.keys (Registry.find_exn data "PDR"))
  in
  Alcotest.(check int) "a quarter of days, two regions" 184
    (List.length last_quarter);
  Engine.Update.set ~cube:"X" ~key:[ vq 2020 1; vs "north" ] (vf 1.)
  :: last_quarter

(* A batch whose propagation fails is undone whole.  It fails on a cold
   cache (the rebuild chase fails) and on a warm one (the incremental
   chase fails): both times every cube in the store is as it was, and
   the next valid batch equals a from-scratch engine. *)
let test_apply_updates_failed_batch_rolls_back () =
  let data = small_overview () in
  let engine = make_engine rollback_source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let before = Registry.copy (Engine.Exlengine.store engine) in
  let failing = failing_batch data in
  let store_as_before what =
    let store = Engine.Exlengine.store engine in
    Alcotest.(check (list string)) (what ^ ": same cubes")
      (Registry.names before) (Registry.names store);
    List.iter
      (fun name ->
        Alcotest.check cube_eq (what ^ ": " ^ name)
          (Registry.find_exn before name) (Registry.find_exn store name))
      (Registry.names before)
  in
  let msg = err "cold cache" (Engine.Exlengine.apply_updates engine failing) in
  Alcotest.(check bool) ("stl_t fails: " ^ msg) true
    (Astring_contains.contains msg "too short");
  store_as_before "cold cache";
  ok (Engine.Exlengine.warm engine);
  ignore (err "warm cache" (Engine.Exlengine.apply_updates engine failing));
  store_as_before "warm cache";
  let valid =
    [ Engine.Update.set ~cube:"PDR" ~key:[ vd 2021 12 31; vs "south" ] (vf 7.) ]
  in
  ignore (ok (Engine.Exlengine.apply_updates engine valid));
  check_derived_agree "after the rollback" engine
    (scratch_engine rollback_source data [ valid ])

(* The engine never writes a cube it has installed.  A cube held
   across a successful batch and a failing one keeps its pre-batch
   facts, and the failing batch reinstalls the very cubes it
   replaced. *)
let test_apply_updates_held_cubes_keep_facts () =
  let data = small_overview () in
  let engine = make_engine rollback_source data in
  ignore (ok (Engine.Exlengine.recompute engine));
  let hold name =
    let cube = Option.get (Engine.Exlengine.cube engine name) in
    (name, cube, Cube.of_alist (Cube.schema cube) (Cube.to_alist cube))
  in
  let check_held what held =
    List.iter
      (fun (name, cube, facts) ->
        Alcotest.check cube_eq
          (Printf.sprintf "%s: the %s held before keeps its facts" what name)
          facts cube)
      held
  in
  let held = [ hold "PDR"; hold "GDP" ] in
  let k = [ vd 2020 1 1; vs "north" ] in
  ignore
    (ok
       (Engine.Exlengine.apply_updates engine
          [ Engine.Update.set ~cube:"PDR" ~key:k (vf 1234.) ]));
  Alcotest.check value "the store reads the revision" (vf 1234.)
    (Option.get
       (Cube.find (Option.get (Engine.Exlengine.cube engine "PDR")) (key k)));
  check_held "successful batch" held;
  let store = Engine.Exlengine.store engine in
  let installed =
    List.map (fun name -> (name, Registry.find_exn store name)) (Registry.names store)
  in
  let held = held @ [ hold "PDR"; hold "GDP" ] in
  ignore (err "failing batch" (Engine.Exlengine.apply_updates engine (failing_batch data)));
  check_held "failed batch" held;
  Alcotest.(check (list string)) "X leaves the store" (List.map fst installed)
    (Registry.names store);
  List.iter
    (fun (name, cube) ->
      Alcotest.(check bool) (name ^ " is its pre-batch cube") true
        (Registry.find_exn store name == cube))
    installed

(* --- incremental == from-scratch, property-tested ---

   For random programs (test/gen.ml) and random uncompacted revision
   batches, two apply_updates calls (the first builds the cache, the
   second runs the delta-seeded chase against it) must leave every
   derived cube equal to a from-scratch recompute_all over the final
   data, and report as [facts_changed] the facts each batch added to or
   removed from the elementary cubes.  A batch whose removals break a
   table function's precondition must fail from scratch too, and leave
   the store as it was. *)

let qcheck_count =
  Helpers.qcheck_count ~var:"EXL_INCR_QCHECK_COUNT" ~default:30

let arb_seeds =
  QCheck.pair Gen.arb_seed
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000))

(* A key of the cube's schema that no generated cube holds. *)
let absent_key k =
  Tuple.of_list
    (match Tuple.to_list k with
    | Value.Period _ :: rest -> vq 2040 1 :: rest
    | _ :: rest -> vs "absent" :: rest
    | [] -> [])

(* About one key in ten of each elementary cube, as the engine holds
   it now, gets one of the edits compaction must net out: a set, a key
   set twice, a removal, set-then-del, del-then-set, a set back to the
   current value, or a del of a key the cube does not hold. *)
let random_batch st engine names ~factor =
  List.concat_map
    (fun name ->
      let set k v = Engine.Update.set ~cube:name ~key:(Tuple.to_list k) v in
      let del k = Engine.Update.remove ~cube:name ~key:(Tuple.to_list k) in
      Cube.fold
        (fun k v ups ->
          if Random.State.float st 1.0 >= 0.1 then ups
          else
            let f = Option.value ~default:1. (Value.to_float v) in
            let revised = vf ((f *. factor) +. 1.) in
            let edit =
              match Random.State.int st 7 with
              | 0 -> [ set k revised ]
              | 1 -> [ set k (vf (f +. 2.)); set k revised ]
              | 2 -> [ del k ]
              | 3 -> [ set k revised; del k ]
              | 4 -> [ del k; set k revised ]
              | 5 -> [ set k v ]
              | _ -> [ del (absent_key k) ]
            in
            List.rev_append edit ups)
        (Option.get (Engine.Exlengine.cube engine name))
        []
      |> List.rev)
    names

(* Facts (key and measure) held by one cube and not the other. *)
let facts_diff a b =
  let one_sided a b =
    Cube.fold
      (fun k v n ->
        match Cube.find b k with Some w when Value.equal v w -> n | _ -> n + 1)
      a 0
  in
  one_sided a b + one_sided b a

let prop_incremental_equals_scratch =
  QCheck.Test.make ~count:qcheck_count
    ~name:"apply_updates == from-scratch recompute_all" arb_seeds
    (fun (seed, rev_seed) ->
      let src, data = Gen.program_of_seed seed in
      let st = Random.State.make [| rev_seed |] in
      let engine = make_engine src data in
      (match Engine.Exlengine.recompute_all engine with
      | Ok _ -> ()
      | Error msg -> QCheck.Test.fail_reportf "recompute_all: %s\n%s" msg src);
      let names = Registry.elementary_names data in
      let facts name =
        let c = Option.get (Engine.Exlengine.cube engine name) in
        Cube.of_alist (Cube.schema c) (Cube.to_alist c)
      in
      (* Apply one more batch after the [applied] ones: the batches
         applied now, and the report or [None] when the batch failed. *)
      let apply applied what ~factor =
        let batch = random_batch st engine names ~factor in
        let installed =
          List.map
            (fun name -> (name, Engine.Exlengine.cube engine name))
            (Registry.names (Engine.Exlengine.store engine))
        in
        let before = List.map facts names in
        match Engine.Exlengine.apply_updates engine batch with
        | Error msg ->
            (* A removal broke a table function's precondition: the
               batch fails from scratch too, and every cube it replaced
               is back in the store. *)
            let _, report = scratch_run src data (applied @ [ batch ]) in
            if not (Engine.Dispatcher.degraded report) then
              QCheck.Test.fail_reportf "%s fails only incrementally: %s\n%s"
                what msg src;
            if
              Registry.names (Engine.Exlengine.store engine)
              <> List.map fst installed
              || not
                   (List.for_all
                      (fun (name, cube) ->
                        Option.equal ( == ) cube (Engine.Exlengine.cube engine name))
                      installed)
            then
              QCheck.Test.fail_reportf "%s: a failure left new cubes: %s\n%s"
                what msg src;
            (applied, None)
        | Ok r ->
            let changed =
              List.fold_left2
                (fun n name old -> n + facts_diff old (facts name))
                0 names before
            in
            if r.Engine.Exlengine.facts_changed <> changed then
              QCheck.Test.fail_reportf
                "%s: facts_changed %d, elementary cubes changed by %d\n%s" what
                r.Engine.Exlengine.facts_changed changed src;
            (applied @ [ batch ], Some r)
      in
      let applied, r1 = apply [] "batch1" ~factor:1.5 in
      let applied, r2 = apply applied "batch2" ~factor:0.5 in
      (* the second propagating batch must run against the cache the
         first one built (batches that propagate nothing build none) *)
      (match (r1, r2) with
      | Some r1, Some r2 ->
          r1.Engine.Exlengine.recomputed = []
          || r2.Engine.Exlengine.recomputed = []
          || r2.Engine.Exlengine.cache_hit
          || QCheck.Test.fail_reportf "second batch missed the cache\n%s" src
      | _ -> true)
      &&
      let scratch = scratch_engine src data applied in
      List.for_all
        (fun name ->
          match
            ( Engine.Exlengine.cube engine name,
              Engine.Exlengine.cube scratch name )
          with
          | Some got, Some want ->
              Cube.equal_data ~eps:1e-6 want got
              || QCheck.Test.fail_reportf "cube %s differs on\n%s" name src
          | None, None -> true
          | _ -> QCheck.Test.fail_reportf "cube %s on one side only\n%s" name src)
        (Engine.Determination.derived_order
           (Engine.Exlengine.determination engine)))

(* --- revisions of a whole source, diffed into deltas --- *)

(* The "delta" suite drives [Chase.incremental] the way a batch reload
   does: the new source is a revised copy of the old registry, the
   deltas are the fact-level diff of the two, and the repaired solution
   must equal a full chase of the revised source. *)

let generated_mapping src =
  (check_ok (Mappings.Generate.of_source src)).Mappings.Generate.mapping

(* Set difference of the source relations of two registries, per
   elementary cube, as the deltas [Chase.incremental] takes. *)
let source_deltas ~old_reg ~new_reg =
  let old_src = Exchange.Instance.of_registry old_reg
  and new_src = Exchange.Instance.of_registry new_reg in
  let table facts =
    let t = Tuple.Table.create 64 in
    List.iter (fun f -> Tuple.Table.replace t (Tuple.of_array (Array.copy f)) f) facts;
    t
  in
  let minus a b =
    let tb = table b in
    List.filter (fun f -> not (Tuple.Table.mem tb (Tuple.of_array (Array.copy f)))) a
  in
  List.filter_map
    (fun name ->
      let before = Exchange.Instance.facts old_src name
      and after = Exchange.Instance.facts new_src name in
      match (minus after before, minus before after) with
      | [], [] -> None
      | added, removed -> Some (name, { Exchange.Chase.added; removed }))
    (List.sort_uniq String.compare
       (Registry.elementary_names old_reg @ Registry.elementary_names new_reg))

(* Repair the solution of [old_reg] to [new_reg], with group-scoped
   aggregation state; also return a full chase of [new_reg] to compare
   against. *)
let repair_and_full mapping ~old_reg ~new_reg =
  let solution = solve mapping old_reg in
  let deltas = source_deltas ~old_reg ~new_reg in
  let state = Exchange.Chase.create_incr_state () in
  let stats, istats, _ =
    ok (Exchange.Chase.incremental ~state mapping ~solution ~deltas)
  in
  (solution, solve mapping new_reg, stats, istats)

let targets_agree mapping a b =
  List.iter
    (fun (schema : Schema.t) ->
      check_relation_eq ("relation " ^ schema.Schema.name) a b schema.Schema.name)
    mapping.Mappings.Mapping.target

(* revise one measure of a cube in a registry copy *)
let revise_measure reg name k factor =
  let out = Registry.copy reg in
  let cube = Registry.find_exn out name in
  (match Cube.find cube k with
  | Some v -> Cube.set cube k (Value.Float (Value.to_float_exn v *. factor))
  | None -> Alcotest.failf "no tuple %s in %s" (Tuple.to_string k) name);
  out

let test_delta_single_revision_overview () =
  let mapping = generated_mapping Helpers.overview_program in
  let old_reg = small_overview () in
  (* revise one quarterly per-capita figure *)
  let new_reg =
    revise_measure old_reg "RGDPPC" (key [ vq 2021 2; vs "north" ]) 1.05
  in
  let repaired, full, stats, istats = repair_and_full mapping ~old_reg ~new_reg in
  targets_agree mapping full repaired;
  Alcotest.(check int) "one fact replaced" 2 istats.Exchange.Chase.input_facts;
  (* far less work than the full chase: the full solution has thousands
     of facts, the revision touches a handful per relation *)
  Alcotest.(check bool)
    (Printf.sprintf "little work (%d)" stats.Exchange.Chase.tuples_generated)
    true
    (stats.Exchange.Chase.tuples_generated < 60)

let test_delta_unaffected_branch () =
  let mapping = generated_mapping Helpers.overview_program in
  let old_reg = small_overview () in
  let new_reg =
    revise_measure old_reg "RGDPPC" (key [ vq 2021 2; vs "north" ]) 1.05
  in
  let base = solve mapping old_reg in
  let repaired, full, _, istats = repair_and_full mapping ~old_reg ~new_reg in
  targets_agree mapping full repaired;
  (* PQR depends only on PDR: identical facts, its stratum skipped *)
  check_relation_eq "PQR untouched" base repaired "PQR";
  Alcotest.(check bool) "some stratum skipped outright" true
    (istats.Exchange.Chase.strata_skipped >= 1)

let test_delta_insertion_and_deletion () =
  let dims = [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ] in
  let mapping =
    generated_mapping
      "cube A(q: quarter, r: string);\n\
       cube B(q: quarter, r: string);\n\
       C := A * B;\n\
       S := sum(C, group by q);\n"
  in
  let old_reg = Registry.create () in
  Registry.add old_reg Registry.Elementary
    (cube_of "A" dims
       [ [ vq 2024 1; vs "x"; vf 2. ]; [ vq 2024 2; vs "x"; vf 3. ] ]);
  Registry.add old_reg Registry.Elementary
    (cube_of "B" dims
       [ [ vq 2024 1; vs "x"; vf 10. ]; [ vq 2024 2; vs "x"; vf 10. ] ]);
  (* delete one A tuple, insert another *)
  let new_reg = Registry.copy old_reg in
  let a = Registry.find_exn new_reg "A" in
  Cube.remove a (key [ vq 2024 1; vs "x" ]);
  Cube.set a (key [ vq 2024 3; vs "x" ]) (vf 7.);
  Cube.set (Registry.find_exn new_reg "B") (key [ vq 2024 3; vs "x" ]) (vf 10.);
  let repaired, full, _, _ = repair_and_full mapping ~old_reg ~new_reg in
  targets_agree mapping full repaired;
  (* sanity: the deleted join result is gone, the new one present *)
  let c = Exchange.Instance.cube_of_relation repaired "C" in
  Alcotest.(check bool) "old gone" false (Cube.find c (key [ vq 2024 1; vs "x" ]) <> None);
  Alcotest.check value "new there" (vf 70.)
    (Option.get (Cube.find c (key [ vq 2024 3; vs "x" ])))

let delta_suite =
  [
    ("single revision on the overview", `Quick, test_delta_single_revision_overview);
    ("unaffected branch untouched", `Quick, test_delta_unaffected_branch);
    ("insertion and deletion", `Quick, test_delta_insertion_and_deletion);
  ]

(* --- incremental ~state == scratch chase, property-tested ---

   Random programs (generated or optimized mappings, so fused tgds
   with complex join terms are covered) take three random batches in
   sequence, each drawn from one of two shapes: a revision that shifts
   a few measures and drops a few keys, or a removal-heavy one with
   some removed keys put back.  After each, the solution repaired
   with state and a full chase of the revised source agree on every
   target relation. *)

(* Drop each key with probability [drop], add [by] to the measure of
   another [shift] share. *)
let random_revision st reg ~drop ~shift ~by =
  let out = Registry.copy reg in
  List.iter
    (fun name ->
      let cube = Registry.find_exn out name in
      List.iter
        (fun k ->
          let roll = Random.State.float st 1.0 in
          if roll < drop then Cube.remove cube k
          else if roll < drop +. shift then
            match Cube.find cube k with
            | Some v -> Cube.set cube k (Value.Float (Value.to_float_exn v +. by))
            | None -> ())
        (Cube.keys cube))
    (Registry.elementary_names out);
  out

(* Keys the revision removed, put back with a new measure: batches
   insert as well as delete. *)
let restore_some st ~from reg =
  let out = Registry.copy reg in
  List.iter
    (fun name ->
      let cube = Registry.find_exn out name in
      Cube.iter
        (fun k v ->
          if Cube.find cube k = None && Random.State.bool st then
            Cube.set cube k
              (Value.Float (Option.value ~default:0. (Value.to_float v) +. 2.)))
        (Registry.find_exn from name))
    (Registry.elementary_names out);
  out

let prop_signed_equals_scratch =
  QCheck.Test.make ~count:qcheck_count
    ~name:"incremental ~state == scratch chase" arb_seeds
    (fun (seed, rev_seed) ->
      let src, reg0 = Gen.program_of_seed seed in
      let generated =
        match Mappings.Generate.of_source src with
        | Ok g -> g.Mappings.Generate.mapping
        | Error e -> QCheck.Test.fail_reportf "gen: %s" (Exl.Errors.to_string e)
      in
      let mapping =
        if seed mod 2 = 0 then generated
        else (Analysis.Optimize.run generated).Analysis.Optimize.optimized
      in
      let chase reg =
        Result.map fst
          (Exchange.Chase.run mapping (Exchange.Instance.of_registry reg))
      in
      let st = Random.State.make [| rev_seed; 23 |] in
      let state = Exchange.Chase.create_incr_state () in
      (* Batch [n] of 3 on [reg].  A batch can leave a source the
         program cannot run on (a series too short for its table
         function): then the scratch chase fails, the repair must fail
         too, and the cached solution is spent. *)
      let rec batches n reg solution =
        n > 3
        ||
        let next =
          if Random.State.bool st then
            random_revision st reg ~drop:0.05 ~shift:0.1 ~by:1.25
          else
            restore_some st ~from:reg0
              (random_revision st reg ~drop:0.25 ~shift:0.1 ~by:0.5)
        in
        let deltas = source_deltas ~old_reg:reg ~new_reg:next in
        match
          (chase next, Exchange.Chase.incremental ~state mapping ~solution ~deltas)
        with
        | Error _, Error _ -> true
        | Ok full, Ok _ ->
            List.for_all
              (fun (schema : Schema.t) ->
                let name = schema.Schema.name in
                Cube.equal_data ~eps:1e-6
                  (Exchange.Instance.cube_of_relation full name)
                  (Exchange.Instance.cube_of_relation solution name)
                || QCheck.Test.fail_reportf "batch %d: %s differs on\n%s" n
                     name src)
              mapping.Mappings.Mapping.target
            && batches (n + 1) next solution
        | full, repaired ->
            let status = function Ok _ -> "ok" | Error msg -> msg in
            QCheck.Test.fail_reportf "batch %d: scratch %s, repair %s\n%s" n
              (status full) (status repaired) src
      in
      match chase reg0 with
      | Ok solution -> batches 1 reg0 solution
      | Error msg -> QCheck.Test.fail_reportf "base chase: %s\n%s" msg src)

let suite =
  [
    ("determination: diamond dirty set from elementary", `Quick, test_dirty_set_elementary);
    ("determination: changed derived reported distinctly", `Quick, test_dirty_set_derived);
    ("determination: mixed change set", `Quick, test_dirty_set_mixed);
    ("update: text format round trip and errors", `Quick, test_update_parse);
    ("update: compact keeps the last write per key", `Quick, test_compact_last_wins);
    ("update: compact cancels set against del", `Quick, test_compact_set_del_cancel);
    ("update: compact is stable and idempotent", `Quick, test_compact_stable_idempotent);
    ("update: compact identifies value-equal keys", `Quick, test_compact_value_aware_keys);
    ("update: concat merges queued batches", `Quick, test_concat_across_batches);
    ("update: concat equals sequential apply", `Quick, test_concat_equals_sequential_apply);
    ("chase: incremental insert-only fast path", `Quick, test_chase_incremental_insert_only);
    ("chase: incremental deletion rederives", `Quick, test_chase_incremental_removal);
    ("chase: incremental skips unreached strata", `Quick, test_chase_incremental_skips_unreached_strata);
    ("chase: incremental aggregation revision", `Quick, test_chase_incremental_aggregation_revision);
    ("chase: group-scoped aggregation state", `Quick, test_chase_incremental_aggregation_state);
    ("chase: blackbox slice revision", `Quick, test_chase_incremental_blackbox_slice);
    ("chase: both join sides revised", `Quick, test_chase_incremental_both_join_sides);
    ("chase: indexes survive a repair", `Quick, test_chase_incremental_keeps_indexes);
    ("chase: empty delta is a no-op", `Quick, test_chase_incremental_empty_delta);
    ("chase: a traced batch spans its input deltas", `Quick, test_chase_incremental_input_span);
    ("facade: apply_updates end to end", `Quick, test_apply_updates_end_to_end);
    ("facade: empty update batch", `Quick, test_apply_updates_empty_batch);
    ("facade: no-op batch propagates nothing", `Quick, test_apply_updates_noop_batch);
    ("facade: update to an unused cube", `Quick, test_apply_updates_unused_cube);
    ("facade: repeated key compacts to last write", `Quick, test_apply_updates_repeated_key);
    ("facade: revert within batch is a no-op", `Quick, test_apply_updates_revert_within_batch);
    ("facade: set then del nets to removal", `Quick, test_apply_updates_set_then_del);
    ("facade: deletion empties a stratum", `Quick, test_apply_updates_deletion_empties_stratum);
    ("facade: history versions only affected cubes", `Quick, test_apply_updates_history_versions);
    ("facade: cache invalidation on load", `Quick, test_apply_updates_cache_invalidation);
    ("facade: batch validation is atomic", `Quick, test_apply_updates_validation_atomic);
    ("facade: a failed batch leaves the store as it was", `Quick, test_apply_updates_failed_batch_rolls_back);
    ("facade: a cube held before a batch keeps its pre-batch facts", `Quick, test_apply_updates_held_cubes_keep_facts);
    QCheck_alcotest.to_alcotest prop_incremental_equals_scratch;
    ("signed: a fact outlives one of two derivations", `Quick, test_signed_two_derivations);
    ("signed: a mis-ordered mapping stratifies by dependency", `Quick, test_misordered_stratifies_by_dependency);
    ("chase: a recursive mapping is rejected", `Quick, test_recursive_mapping_rejected);
    ("signed: one delta per relation", `Quick, test_signed_one_delta_per_relation);
    QCheck_alcotest.to_alcotest prop_signed_equals_scratch;
  ]

