(* Data exchange: instances, the stratified chase, and the machine-checked
   equivalence theorem (Section 4.2). *)
open Matrix
open Helpers
module M = Mappings
module X = Exchange

let run_chase src reg =
  let { M.Generate.mapping; _ } = check_ok (M.Generate.of_source src) in
  let source = X.Instance.of_registry reg in
  match X.Chase.run mapping source with
  | Ok (j, stats) -> (j, stats)
  | Error msg -> Alcotest.failf "chase failed: %s" msg

(* --- instances --- *)

let test_instance_set_semantics () =
  let inst = X.Instance.create () in
  X.Instance.add_relation inst
    (Schema.make ~name:"A" ~dims:[ ("x", Domain.Int) ] ());
  Alcotest.(check bool) "new" true (X.Instance.insert inst "A" [| vi 1; vf 2. |]);
  Alcotest.(check bool) "dup" false (X.Instance.insert inst "A" [| vi 1; vf 2. |]);
  Alcotest.(check int) "one fact" 1 (X.Instance.cardinality inst "A")

let test_instance_roundtrip () =
  let reg = overview_registry () in
  let inst = X.Instance.of_registry reg in
  let pdr = Registry.find_exn reg "PDR" in
  Alcotest.(check int) "facts = tuples" (Cube.cardinality pdr)
    (X.Instance.cardinality inst "PDR");
  let back = X.Instance.cube_of_relation inst "PDR" in
  Alcotest.check cube_eq "roundtrip" pdr back

let test_instance_detects_conflict () =
  let inst = X.Instance.create () in
  X.Instance.add_relation inst
    (Schema.make ~name:"A" ~dims:[ ("x", Domain.Int) ] ());
  ignore (X.Instance.insert inst "A" [| vi 1; vf 2. |]);
  ignore (X.Instance.insert inst "A" [| vi 1; vf 3. |]);
  Alcotest.check_raises "functionality"
    (Cube.Functionality_violation { cube = "A"; key = key [ vi 1 ] })
    (fun () -> ignore (X.Instance.cube_of_relation inst "A"))

(* --- chase on single tgds --- *)

let test_chase_copy () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 2. ] ]);
  let j, _ = run_chase "cube A(x: int);\nB := A;\n" reg in
  Alcotest.check cube_eq "copied"
    (X.Instance.cube_of_relation j "A")
    (Cube.with_schema (Cube.schema (X.Instance.cube_of_relation j "A"))
       (X.Instance.cube_of_relation j "B"))

let test_chase_join_tgd () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 2. ]; [ vi 2; vf 3. ] ]);
  Registry.add reg Registry.Elementary
    (cube_of "B" [ ("x", Domain.Int) ] [ [ vi 2; vf 10. ] ]);
  let j, stats = run_chase "cube A(x: int);\ncube B(x: int);\nC := A * B;\n" reg in
  let c = X.Instance.cube_of_relation j "C" in
  Alcotest.(check int) "one joined tuple" 1 (Cube.cardinality c);
  Alcotest.check value "2*10=30?" (vf 30.) (Option.get (Cube.find c (key [ vi 2 ])));
  Alcotest.(check bool) "stats counted" true (stats.X.Chase.tuples_generated >= 1)

let test_chase_aggregation_tgd () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A"
       [ ("x", Domain.Int); ("y", Domain.String) ]
       [
         [ vi 1; vs "a"; vf 2. ];
         [ vi 1; vs "b"; vf 4. ];
         [ vi 2; vs "a"; vf 10. ];
       ]);
  let j, _ = run_chase "cube A(x: int, y: string);\nS := sum(A, group by x);\n" reg in
  let s = X.Instance.cube_of_relation j "S" in
  Alcotest.check value "sum x=1" (vf 6.) (Option.get (Cube.find s (key [ vi 1 ])));
  Alcotest.check value "sum x=2" (vf 10.) (Option.get (Cube.find s (key [ vi 2 ])))

let test_chase_dimension_function () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A"
       [ ("d", Domain.Date) ]
       [ [ vd 2020 1 5; vf 2. ]; [ vd 2020 2 5; vf 4. ]; [ vd 2020 7 1; vf 8. ] ]);
  let j, _ =
    run_chase "cube A(d: date);\nQ := avg(A, group by quarter(d) as q);\n" reg
  in
  let q = X.Instance.cube_of_relation j "Q" in
  Alcotest.check value "q1 avg" (vf 3.) (Option.get (Cube.find q (key [ vq 2020 1 ])));
  Alcotest.check value "q3 avg" (vf 8.) (Option.get (Cube.find q (key [ vq 2020 3 ])))

let test_chase_table_fn_tgd () =
  let reg = Registry.create () in
  let rows =
    List.init 16 (fun i ->
        [
          Value.Period (Calendar.Period.make Calendar.Quarter ((2019 * 4) + i));
          vf (float_of_int (i + 1));
        ])
  in
  Registry.add reg Registry.Elementary (cube_of "A" [ ("t", Domain.Period (Some Calendar.Quarter)) ] rows);
  let j, _ = run_chase "cube A(t: quarter);\nB := cumsum(A);\n" reg in
  let b = X.Instance.cube_of_relation j "B" in
  Alcotest.(check int) "all tuples" 16 (Cube.cardinality b);
  Alcotest.check value "last cumsum" (vf 136.)
    (Option.get
       (Cube.find b
          (key [ Value.Period (Calendar.Period.make Calendar.Quarter ((2019 * 4) + 15)) ])))

let test_chase_division_hole () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 5. ]; [ vi 2; vf 0. ] ]);
  let j, _ = run_chase "cube A(x: int);\nB := 1 / A;\n" reg in
  Alcotest.(check int) "hole at zero" 1
    (Cube.cardinality (X.Instance.cube_of_relation j "B"))

let test_chase_egd_detects_violation () =
  (* Force an egd violation by chasing a handcrafted mapping whose tgd
     projects away a dimension without aggregating. *)
  let schema_a = Schema.make ~name:"A" ~dims:[ ("x", Domain.Int); ("y", Domain.Int) ] () in
  let schema_b = Schema.make ~name:"B" ~dims:[ ("x", Domain.Int) ] () in
  let bad_tgd =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "A" [ M.Term.Var "x"; M.Term.Var "y"; M.Term.Var "m" ] ];
        rhs = M.Tgd.atom "B" [ M.Term.Var "x"; M.Term.Var "m" ];
      }
  in
  let mapping =
    {
      M.Mapping.source = [ schema_a ];
      target = [ schema_a; schema_b ];
      st_tgds = [];
      t_tgds = [ bad_tgd ];
      egds = [ M.Egd.of_schema schema_b ];
    }
  in
  let inst = X.Instance.create () in
  X.Instance.add_relation inst schema_a;
  ignore (X.Instance.insert inst "A" [| vi 1; vi 1; vf 10. |]);
  ignore (X.Instance.insert inst "A" [| vi 1; vi 2; vf 20. |]);
  match X.Chase.run mapping inst with
  | Error msg ->
      Alcotest.(check bool) "mentions egd" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected egd violation"

(* Two violations in one relation, its source inserted in reverse key
   order: the chase reports the first violation in key order and counts
   the checks up to it, on the row and the columnar path alike. *)
let test_chase_egd_first_violation () =
  let schema_a = Schema.make ~name:"A" ~dims:[ ("x", Domain.Int); ("y", Domain.Int) ] () in
  let schema_b = Schema.make ~name:"B" ~dims:[ ("x", Domain.Int) ] () in
  let project =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "A" [ M.Term.Var "x"; M.Term.Var "y"; M.Term.Var "m" ] ];
        rhs = M.Tgd.atom "B" [ M.Term.Var "x"; M.Term.Var "m" ];
      }
  in
  let mapping =
    {
      M.Mapping.source = [ schema_a ];
      target = [ schema_a; schema_b ];
      st_tgds = [];
      t_tgds = [ project ];
      egds = [ M.Egd.of_schema schema_b ];
    }
  in
  let inst = X.Instance.create () in
  X.Instance.add_relation inst schema_a;
  List.iter
    (fun (x, y, m) -> ignore (X.Instance.insert inst "A" [| vi x; vi y; vf m |]))
    [ (4, 1, 7.); (3, 2, 40.); (3, 1, 30.); (2, 1, 5.); (1, 2, 20.); (1, 1, 10.) ];
  List.iter
    (fun columnar ->
      let c = Obs.create ~spans:false () in
      let result =
        Obs.with_collector c (fun () -> X.Chase.run ~columnar mapping inst)
      in
      let what = if columnar then "columnar" else "row" in
      (match result with
      | Error msg ->
          Alcotest.(check string) (what ^ ": message")
            "chase failed: egd violation: B has two measures (10, 20) for (1)" msg
      | Ok _ -> Alcotest.failf "%s: expected an egd violation" what);
      Alcotest.(check int) (what ^ ": egd_checks") 2
        (Obs.Metrics.counter_value c.Obs.metrics "chase.egd_checks"))
    [ true; false ]

let test_chase_empty_source () =
  let reg = Registry.create () in
  let j, _ = run_chase "cube A(x: int);\nB := A + 1;\nC := sum(B, group by x);\n" reg in
  Alcotest.(check int) "no facts" 0 (X.Instance.cardinality j "C")

(* --- incremental secondary indexes --- *)

let test_instance_incremental_indexes () =
  let inst = X.Instance.create () in
  X.Instance.add_relation inst
    (Schema.make ~name:"A" ~dims:[ ("x", Domain.Int); ("y", Domain.String) ] ());
  ignore (X.Instance.insert inst "A" [| vi 1; vs "a"; vf 10. |]);
  ignore (X.Instance.insert inst "A" [| vi 1; vs "b"; vf 20. |]);
  (* built from the facts already present *)
  X.Instance.ensure_index inst "A" [ 0 ];
  Alcotest.(check int) "initial bucket" 2
    (List.length (X.Instance.lookup_index inst "A" [ 0 ] [ vi 1 ]));
  (* maintained on insert... *)
  ignore (X.Instance.insert inst "A" [| vi 1; vs "c"; vf 30. |]);
  ignore (X.Instance.insert inst "A" [| vi 2; vs "a"; vf 40. |]);
  Alcotest.(check int) "after insert" 3
    (List.length (X.Instance.lookup_index inst "A" [ 0 ] [ vi 1 ]));
  (* ...and on remove, dropping emptied buckets *)
  ignore (X.Instance.remove inst "A" [| vi 1; vs "b"; vf 20. |]);
  ignore (X.Instance.remove inst "A" [| vi 2; vs "a"; vf 40. |]);
  Alcotest.(check int) "after remove" 2
    (List.length (X.Instance.lookup_index inst "A" [ 0 ] [ vi 1 ]));
  Alcotest.(check int) "emptied bucket" 0
    (List.length (X.Instance.lookup_index inst "A" [ 0 ] [ vi 2 ]));
  (* a second index on another position set coexists *)
  X.Instance.ensure_index inst "A" [ 1 ];
  Alcotest.(check (list (list int))) "indexed positions" [ [ 0 ]; [ 1 ] ]
    (X.Instance.indexed_positions inst "A");
  (* every index agrees with a full scan at all times *)
  let scan_count v =
    List.length
      (List.filter (fun f -> f.(1) = v) (X.Instance.facts inst "A"))
  in
  Alcotest.(check int) "index == scan" (scan_count (vs "a"))
    (List.length (X.Instance.lookup_index inst "A" [ 1 ] [ vs "a" ]))

(* --- naive vs semi-naive evaluation --- *)

let mapping_of_source src =
  let { M.Generate.mapping; _ } = check_ok (M.Generate.of_source src) in
  mapping

let facts_by_relation mapping j =
  List.map
    (fun schema ->
      let name = schema.Schema.name in
      (name, List.map Tuple.of_array (X.Instance.facts j name)))
    mapping.M.Mapping.target

let check_same_solution src reg =
  let mapping = mapping_of_source src in
  let source = X.Instance.of_registry reg in
  let run what = function
    | Ok r -> r
    | Error msg -> Alcotest.failf "chase (%s): %s" what msg
  in
  let naive_j, naive_stats = run "naive" (X.Chase.run_naive mapping source) in
  let semi_j, semi_stats = run "semi-naive" (X.Chase.run mapping source) in
  List.iter2
    (fun (name, naive_facts) (_, semi_facts) ->
      if
        not
          (List.length naive_facts = List.length semi_facts
          && List.for_all2 Tuple.equal naive_facts semi_facts)
      then
        Alcotest.failf "fact sets differ on %s (naive %d, semi-naive %d)" name
          (List.length naive_facts) (List.length semi_facts))
    (facts_by_relation mapping naive_j)
    (facts_by_relation mapping semi_j);
  (naive_stats, semi_stats)

let test_chase_modes_agree_overview () =
  let naive_stats, semi_stats =
    check_same_solution overview_program (overview_registry ())
  in
  (* the Jacobi baseline needs ~depth+2 rounds; the stratified pass is
     one round per stratum *)
  Alcotest.(check bool) "naive iterates" true (naive_stats.X.Chase.rounds > 2);
  Alcotest.(check bool) "match-count win >= 5x" true
    (naive_stats.X.Chase.matches_examined
    >= 5 * semi_stats.X.Chase.matches_examined)

let prop_semi_naive_equals_naive =
  QCheck.Test.make ~count:40
    ~name:"semi-naive chase == naive chase on random programs" Gen.arb_seed
    (fun seed ->
      let src, reg = Gen.program_of_seed seed in
      ignore (check_same_solution src reg : X.Chase.stats * X.Chase.stats);
      true)

(* --- the equivalence theorem --- *)

(* The chase of [mapping] over the overview data holds the
   interpreter's cubes. *)
let check_overview_chase mapping =
  let reg = overview_registry () in
  let reference = check_ok (Exl.Interp.run (load_overview ()) reg) in
  match X.Chase.run mapping (X.Instance.of_registry reg) with
  | Error m -> Alcotest.failf "chase: %s" m
  | Ok (j, stats) ->
      Alcotest.(check bool) "work done" true (stats.X.Chase.tuples_generated > 0);
      List.iter
        (fun name ->
          Alcotest.check cube_eq name
            (Registry.find_exn reference name)
            (X.Instance.cube_of_relation j name))
        (Registry.names reference)

let test_equivalence_overview () = check_overview_chase (overview_mapping ())

(* The optimizer's fused mapping produces the same final relations. *)
let test_equivalence_overview_fused () =
  check_overview_chase (core_ok (Core.fused_mapping_of (load_overview ())))

(* The dispatcher's Chase target == the interpreter on random
   programs (helpers.ml). *)
let prop_chase_equals_interp =
  prop_backend_matches_interp ~count:60
    ~name:"chase == interpreter on random programs" Core.Chase

let suite =
  [
    ("instance: set semantics", `Quick, test_instance_set_semantics);
    ("instance: registry roundtrip", `Quick, test_instance_roundtrip);
    ("instance: conflict detection", `Quick, test_instance_detects_conflict);
    ("chase: copy tgd", `Quick, test_chase_copy);
    ("chase: join tgd", `Quick, test_chase_join_tgd);
    ("chase: aggregation tgd", `Quick, test_chase_aggregation_tgd);
    ("chase: dimension function", `Quick, test_chase_dimension_function);
    ("chase: table function tgd", `Quick, test_chase_table_fn_tgd);
    ("chase: division hole", `Quick, test_chase_division_hole);
    ("chase: egd violation detected", `Quick, test_chase_egd_detects_violation);
    ("chase: first egd violation in key order", `Quick, test_chase_egd_first_violation);
    ("chase: empty source", `Quick, test_chase_empty_source);
    ("instance: incremental indexes", `Quick, test_instance_incremental_indexes);
    ("chase: modes agree on overview", `Quick, test_chase_modes_agree_overview);
    QCheck_alcotest.to_alcotest prop_semi_naive_equals_naive;
    ("verify: overview equivalence", `Quick, test_equivalence_overview);
    ("verify: fused equivalence", `Quick, test_equivalence_overview_fused);
    QCheck_alcotest.to_alcotest prop_chase_equals_interp;
  ]
