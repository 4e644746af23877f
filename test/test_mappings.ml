(* Schema mapping layer: tgd generation, printing, stratification,
   fusion, and a mapping written by hand. *)
open Helpers
module M = Mappings

let generate src = check_ok (M.Generate.of_source src)

let overview_generated () = generate Helpers.overview_program

let find_tgd mapping name =
  match M.Mapping.tgd_for mapping name with
  | Some tgd -> tgd
  | None -> Alcotest.failf "no tgd for %s" name

(* --- generation: the paper's tgds (1)-(4) --- *)

let test_tgd_shapes () =
  let { M.Generate.mapping; _ } = overview_generated () in
  (match find_tgd mapping "PQR" with
  | M.Tgd.Aggregation { aggr; group_by; source; _ } ->
      Alcotest.(check string) "avg" "avg" (Stats.Aggregate.to_string aggr);
      Alcotest.(check int) "two group terms" 2 (List.length group_by);
      Alcotest.(check string) "source" "PDR" source.M.Tgd.rel
  | _ -> Alcotest.fail "PQR should be an aggregation tgd");
  (match find_tgd mapping "RGDP" with
  | M.Tgd.Tuple_level { lhs; _ } ->
      Alcotest.(check int) "join of two atoms" 2 (List.length lhs)
  | _ -> Alcotest.fail "RGDP should be tuple-level");
  (match find_tgd mapping "GDP" with
  | M.Tgd.Aggregation { aggr; group_by; _ } ->
      Alcotest.(check string) "sum" "sum" (Stats.Aggregate.to_string aggr);
      Alcotest.(check int) "one group term" 1 (List.length group_by)
  | _ -> Alcotest.fail "GDP should be an aggregation tgd");
  match find_tgd mapping "GDPT" with
  | M.Tgd.Table_fn { fn; source; _ } ->
      Alcotest.(check string) "stl_t" "stl_t" fn;
      Alcotest.(check string) "GDP" "GDP" source
  | _ -> Alcotest.fail "GDPT should be a table-function tgd"

let test_tgd_printing_matches_paper () =
  let { M.Generate.mapping; _ } = overview_generated () in
  Alcotest.(check string) "tgd (2)"
    "RGDPPC(q, r, m1) ∧ PQR(q, r, m2) → RGDP(q, r, m1 * m2)"
    (M.Tgd.to_string (find_tgd mapping "RGDP"));
  Alcotest.(check string) "tgd (3)"
    "RGDP(q, r, m) → GDP(q, sum(m))"
    (M.Tgd.to_string (find_tgd mapping "GDP"));
  Alcotest.(check string) "tgd (4)"
    "GDP → GDPT(stl_t(GDP))"
    (M.Tgd.to_string (find_tgd mapping "GDPT"));
  Alcotest.(check string) "tgd (1)"
    "PDR(d, r, m) → PQR(quarter(d), r, avg(m))"
    (M.Tgd.to_string (find_tgd mapping "PQR"))

let test_all_tgds_safe () =
  let { M.Generate.mapping; _ } = overview_generated () in
  List.iter
    (fun tgd ->
      Alcotest.(check bool)
        (M.Tgd.to_string tgd) true (M.Tgd.is_safe tgd))
    (mapping.M.Mapping.t_tgds @ mapping.M.Mapping.st_tgds)

let test_shift_tgd_direction () =
  let { M.Generate.mapping; _ } =
    generate "cube A(t: quarter);\nB := shift(A, 1);\n"
  in
  Alcotest.(check string) "lag convention"
    "A(t, m) → B(t + 1, m)"
    (M.Tgd.to_string (find_tgd mapping "B"))

let test_egds_generated () =
  let { M.Generate.mapping; _ } = overview_generated () in
  let egd_rels =
    List.map (fun (e : M.Egd.t) -> e.M.Egd.relation) mapping.M.Mapping.egds
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("egd for " ^ name) true (List.mem name egd_rels))
    [ "PDR"; "RGDPPC"; "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]

let test_constant_statement () =
  let { M.Generate.mapping; _ } = generate "K := 6 * 7;\n" in
  match find_tgd mapping "K" with
  | M.Tgd.Tuple_level { lhs = []; rhs } ->
      Alcotest.(check string) "rel" "K" rhs.M.Tgd.rel
  | _ -> Alcotest.fail "constant tgd should have an empty lhs"

(* --- stratification --- *)

let test_stratify_ok () =
  let { M.Generate.mapping; _ } = overview_generated () in
  core_ok (M.Stratify.check mapping)

let test_stratify_levels () =
  let { M.Generate.mapping; _ } = overview_generated () in
  let levels = Result.get_ok (M.Stratify.levels mapping) in
  Alcotest.(check int) "PQR level" 1 (List.assoc "PQR" levels);
  Alcotest.(check int) "RGDP level" 2 (List.assoc "RGDP" levels);
  Alcotest.(check int) "GDP level" 3 (List.assoc "GDP" levels);
  Alcotest.(check int) "GDPT level" 4 (List.assoc "GDPT" levels)

let test_strata_partition () =
  let { M.Generate.mapping; _ } = overview_generated () in
  let strata = Result.get_ok (M.Stratify.strata mapping) in
  let total = List.length (List.concat strata) in
  Alcotest.(check int) "all tgds in strata" (List.length mapping.M.Mapping.t_tgds) total

(* --- fusion: the optimizer's certified rewrites --- *)

let fused_overview () =
  let { M.Generate.mapping; _ } = overview_generated () in
  (mapping, (Analysis.Optimize.run mapping).Analysis.Optimize.optimized)

let test_fuse_removes_temps () =
  let mapping, fused = fused_overview () in
  Alcotest.(check bool) "fewer tgds" true
    (List.length fused.M.Mapping.t_tgds < List.length mapping.M.Mapping.t_tgds);
  List.iter
    (fun tgd ->
      Alcotest.(check bool) "no temp targets" false
        (Exl.Normalize.is_temp (M.Tgd.target_relation tgd)))
    fused.M.Mapping.t_tgds;
  (* Only the five original derived cubes remain as targets. *)
  Alcotest.(check (list string)) "targets"
    [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]
    (M.Mapping.derived_order fused)

let test_fused_pchng_shape () =
  (* The paper's tgd (5): two GDPT atoms joined one quarter apart with a
     complex arithmetic term in the rhs (the optimizer's I303 merge
     folds the third GDPT atom the fusions leave). *)
  let _, fused = fused_overview () in
  match M.Mapping.tgd_for fused "PCHNG" with
  | Some (M.Tgd.Tuple_level { lhs; rhs }) ->
      Alcotest.(check bool) "at least two GDPT atoms" true
        (List.length (List.filter (fun (a : M.Tgd.atom) -> a.M.Tgd.rel = "GDPT") lhs)
        >= 2);
      Alcotest.(check string) "target" "PCHNG" rhs.M.Tgd.rel
  | _ -> Alcotest.fail "fused PCHNG should be tuple-level"

let test_fuse_preserves_chase_semantics () =
  let mapping, fused = fused_overview () in
  let reg = overview_registry () in
  let source = Exchange.Instance.of_registry reg in
  let j1, _ = core_ok (Exchange.Chase.run mapping source) in
  let j2, _ = core_ok (Exchange.Chase.run fused source) in
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Exchange.Instance.cube_of_relation j1 name)
        (Exchange.Instance.cube_of_relation j2 name))
    [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]

(* --- a hand-written mapping --- *)

let test_handwritten_mapping_executes () =
  (* author a mapping by hand, run it through the chase *)
  let tgds =
    [
      tl [ atom "A" [ var "q"; var "m" ] ]
        (atom "DOUBLE" [ var "q"; M.Term.Binapp (Ops.Binop.Mul, num 2., var "m") ]);
      sum_tgd (atom "DOUBLE" [ var "q"; var "m" ]) ~group_by:[] ~measure:"m" "TOTAL";
    ]
  in
  Alcotest.(check (list string)) "logic notation"
    [ "A(q, m) → DOUBLE(q, 2 * m)"; "DOUBLE(q, m) → TOTAL(sum(m))" ]
    (List.map M.Tgd.to_string tgds);
  let schema_a =
    Matrix.Schema.make ~name:"A"
      ~dims:[ ("q", Matrix.Domain.Period (Some Matrix.Calendar.Quarter)) ]
      ()
  in
  let schema_double =
    Matrix.Schema.make ~name:"DOUBLE"
      ~dims:[ ("q", Matrix.Domain.Period (Some Matrix.Calendar.Quarter)) ]
      ()
  in
  let schema_total = Matrix.Schema.make ~name:"TOTAL" ~dims:[] () in
  let mapping =
    {
      M.Mapping.source = [ schema_a ];
      target = [ schema_a; schema_double; schema_total ];
      st_tgds = [];
      t_tgds = tgds;
      egds = [];
    }
  in
  let inst = Exchange.Instance.create () in
  Exchange.Instance.add_relation inst schema_a;
  ignore (Exchange.Instance.insert inst "A" [| vq 2024 1; vf 3. |]);
  ignore (Exchange.Instance.insert inst "A" [| vq 2024 2; vf 4. |]);
  match Exchange.Chase.run mapping inst with
  | Error msg -> Alcotest.fail msg
  | Ok (j, _) ->
      let total = Exchange.Instance.cube_of_relation j "TOTAL" in
      Alcotest.check value "2*3 + 2*4" (vf 14.)
        (Option.get (Matrix.Cube.find total (key [])))

(* --- terms --- *)

let test_term_eval () =
  let open M.Term in
  let env v = if v = "y" then Some (Matrix.Value.Float 10.) else None in
  Alcotest.(check (option Helpers.value)) "3*y"
    (Some (Matrix.Value.Float 30.))
    (eval env (Binapp (Ops.Binop.Mul, Const (Matrix.Value.Float 3.), Var "y")));
  Alcotest.(check (option Helpers.value)) "y/0 undefined" None
    (eval env (Binapp (Ops.Binop.Div, Var "y", Const (Matrix.Value.Float 0.))));
  Alcotest.(check (option Helpers.value)) "unbound" None (eval env (Var "z"));
  let q = Matrix.Calendar.Period.quarter 2020 1 in
  let env_t v = if v = "t" then Some (Matrix.Value.Period q) else None in
  Alcotest.(check (option Helpers.value)) "shifted"
    (Some (Matrix.Value.Period (Matrix.Calendar.Period.quarter 2020 2)))
    (eval env_t (Shifted (Var "t", 1)))

let test_term_printing () =
  let open M.Term in
  Alcotest.(check string) "q - 1" "q - 1" (to_string (Shifted (Var "q", -1)));
  Alcotest.(check string) "complex"
    "(m1 - m2) * 100 / m1"
    (to_string
       (Binapp
          ( Ops.Binop.Div,
            Binapp
              ( Ops.Binop.Mul,
                Binapp (Ops.Binop.Sub, Var "m1", Var "m2"),
                Const (Matrix.Value.Float 100.) ),
            Var "m1" )))

let suite =
  [
    ("generate: tgd shapes", `Quick, test_tgd_shapes);
    ("generate: printing matches paper", `Quick, test_tgd_printing_matches_paper);
    ("generate: all tgds safe", `Quick, test_all_tgds_safe);
    ("generate: shift direction", `Quick, test_shift_tgd_direction);
    ("generate: egds for every cube", `Quick, test_egds_generated);
    ("generate: constant statement", `Quick, test_constant_statement);
    ("stratify: overview ok", `Quick, test_stratify_ok);
    ("stratify: levels", `Quick, test_stratify_levels);
    ("stratify: strata partition", `Quick, test_strata_partition);
    ("fuse: removes temporaries", `Quick, test_fuse_removes_temps);
    ("fuse: pchng shape", `Quick, test_fused_pchng_shape);
    ("fuse: preserves chase semantics", `Quick, test_fuse_preserves_chase_semantics);
    ("parse: hand-written mapping executes", `Quick, test_handwritten_mapping_executes);
    ("term: evaluation", `Quick, test_term_eval);
    ("term: printing", `Quick, test_term_printing);
  ]
