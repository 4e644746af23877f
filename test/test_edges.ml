(* Cross-cutting edge cases: zero-dimensional cubes, NULL semantics,
   direct unit tests for smaller pipeline pieces. *)
open Matrix
open Helpers
module M = Mappings

(* --- zero-dimensional (constant) cubes across every back end --- *)

let test_constant_cube_all_backends () =
  let source = "K := 2 + 3;\nK2 := K * 10;\n" in
  let checked = Core.compile_exn source in
  let data = Registry.create () in
  (match Core.verify_all_backends checked data with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let out = core_ok (Core.run checked data) in
  Alcotest.check value "k2" (vf 50.)
    (Option.get (Cube.find (Registry.find_exn out "K2") (key [])))

let test_total_aggregate_all_backends () =
  let source = "cube A(x: int);\nTOTAL := sum(A);\nSCALED := TOTAL / 2;\n" in
  let checked = Core.compile_exn source in
  let data = Registry.create () in
  Registry.add data Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 4. ]; [ vi 2; vf 6. ] ]);
  (match Core.verify_all_backends checked data with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let out = core_ok (Core.run checked data) in
  Alcotest.check value "scaled total" (vf 5.)
    (Option.get (Cube.find (Registry.find_exn out "SCALED") (key [])))

(* --- NULL semantics in the SQL engine --- *)

let test_sql_null_keys_never_join () =
  let db = Relational.Database.create () in
  let t = Relational.Database.create_table db ~name:"A" ~columns:[ "x"; "value" ] in
  Relational.Table.insert t [| Value.Null; vf 1. |];
  Relational.Table.insert t [| vi 1; vf 2. |];
  let schema = Schema.make ~name:"A" ~dims:[ ("x", Domain.Int) ] () in
  let lookup n = if n = "A" then Some schema else None in
  let select =
    {
      Relational.Sql_ast.projections =
        [
          (Relational.Sql_ast.Col { alias = "L"; column = "value" }, "lv");
          (Relational.Sql_ast.Col { alias = "R"; column = "value" }, "rv");
        ];
      from = Relational.Sql_ast.Tables [ ("A", "L"); ("A", "R") ];
      where =
        [
          ( Relational.Sql_ast.Col { alias = "L"; column = "x" },
            Relational.Sql_ast.Col { alias = "R"; column = "x" } );
        ];
      group_by = [];
    }
  in
  match Relational.Executor.rows_of_select db lookup select with
  | Ok rows -> Alcotest.(check int) "only the non-null key joins" 1 (List.length rows)
  | Error e -> Alcotest.fail e

(* --- merge_outer unit --- *)

let test_cube_merge_outer () =
  let a = cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 1. ]; [ vi 2; vf 2. ] ] in
  let b = cube_of "B" [ ("x", Domain.Int) ] [ [ vi 2; vf 20. ]; [ vi 3; vf 30. ] ] in
  let combined =
    Cube.merge_outer
      (fun va vb ->
        let f v = Option.value ~default:0. (Option.bind v Value.to_float) in
        Value.of_float (f va +. f vb))
      (Cube.schema a) a b
  in
  Alcotest.(check int) "union" 3 (Cube.cardinality combined);
  Alcotest.check value "left only" (vf 1.) (Option.get (Cube.find combined (key [ vi 1 ])));
  Alcotest.check value "both" (vf 22.) (Option.get (Cube.find combined (key [ vi 2 ])));
  Alcotest.check value "right only" (vf 30.) (Option.get (Cube.find combined (key [ vi 3 ])))

(* --- fuse_step unit --- *)

let test_fuse_step_direct () =
  let tv v = M.Term.Var v in
  let producer =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "A" [ tv "q"; tv "m" ] ];
        rhs =
          M.Tgd.atom "T__1"
            [ tv "q"; M.Term.Binapp (Ops.Binop.Mul, tv "m", M.Term.Const (vf 2.)) ];
      }
  in
  let consumer =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "T__1" [ tv "q"; tv "m" ] ];
        rhs =
          M.Tgd.atom "OUT"
            [ tv "q"; M.Term.Binapp (Ops.Binop.Add, tv "m", M.Term.Const (vf 1.)) ];
      }
  in
  match M.Fuse.fuse_step ~producer ~consumer with
  | Some (M.Tgd.Tuple_level { lhs; rhs }) ->
      Alcotest.(check int) "one atom" 1 (List.length lhs);
      Alcotest.(check string) "source" "A" (List.hd lhs).M.Tgd.rel;
      Alcotest.(check bool) "nested term" true
        (Astring_contains.contains (M.Tgd.to_string (M.Tgd.Tuple_level { lhs; rhs }))
           "m * 2 + 1")
  | _ -> Alcotest.fail "expected a fused tuple-level tgd"

let test_fuse_step_rejects_non_tuple_level () =
  let tv v = M.Term.Var v in
  let producer =
    M.Tgd.Table_fn { fn = "cumsum"; params = []; source = "A"; target = "T__1" }
  in
  let consumer =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "T__1" [ tv "q"; tv "m" ] ];
        rhs = M.Tgd.atom "OUT" [ tv "q"; tv "m" ];
      }
  in
  Alcotest.(check bool) "not fusable" true
    (M.Fuse.fuse_step ~producer ~consumer = None)

(* --- stratify failure --- *)

let test_stratify_detects_forward_reference () =
  let tv v = M.Term.Var v in
  let schema name = Schema.make ~name ~dims:[ ("q", Domain.Int) ] () in
  let tgd src dst =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom src [ tv "q"; tv "m" ] ];
        rhs = M.Tgd.atom dst [ tv "q"; tv "m" ];
      }
  in
  let mapping =
    {
      M.Mapping.source = [ schema "A" ];
      target = [ schema "A"; schema "B"; schema "C" ];
      st_tgds = [];
      t_tgds = [ tgd "C" "B"; tgd "B" "C" ] (* C used before defined *);
      egds = [];
    }
  in
  match M.Stratify.check mapping with
  | Error msg ->
      Alcotest.(check bool) "names the relation" true
        (Astring_contains.contains msg "C")
  | Ok () -> Alcotest.fail "expected stratification error"

(* --- historicity same-date replacement --- *)

let test_historicity_same_date_replaces () =
  let h = Engine.Historicity.create () in
  let date = Calendar.Date.make ~year:2026 ~month:1 ~day:1 in
  let mk v = cube_of "X" [ ("k", Domain.Int) ] [ [ vi 1; vf v ] ] in
  Engine.Historicity.store h ~valid_from:date (mk 1.);
  Engine.Historicity.store h ~valid_from:date (mk 2.);
  Alcotest.(check int) "one version" 1 (Engine.Historicity.version_count h "X");
  Alcotest.check value "latest wins" (vf 2.)
    (Option.get
       (Cube.find (Option.get (Helpers.latest_version h "X")) (key [ vi 1 ])))

(* --- frame utilities --- *)

let test_frame_sort_filter () =
  let f =
    Vector.Frame.create
      [ ("x", [| vi 3; vi 1; vi 2 |]); ("v", [| vf 30.; vf 10.; vf 20. |]) ]
  in
  let sorted = Vector.Frame.sort_rows f in
  Alcotest.check value "first row after sort" (vi 1)
    (Vector.Frame.column sorted "x").(0);
  let filtered =
    Vector.Frame.filter_rows sorted (fun i ->
        Value.equal (Vector.Frame.column sorted "x").(i) (vi 2))
  in
  Alcotest.(check int) "one match" 1 (Vector.Frame.length filtered);
  Alcotest.check value "its measure" (vf 20.) (Vector.Frame.column filtered "v").(0)

let suite =
  [
    ("constant cube on all backends", `Quick, test_constant_cube_all_backends);
    ("total aggregate on all backends", `Quick, test_total_aggregate_all_backends);
    ("sql: null keys never join", `Quick, test_sql_null_keys_never_join);
    ("cube: merge_outer", `Quick, test_cube_merge_outer);
    ("fuse: direct step", `Quick, test_fuse_step_direct);
    ("fuse: rejects non tuple-level", `Quick, test_fuse_step_rejects_non_tuple_level);
    ("stratify: forward reference", `Quick, test_stratify_detects_forward_reference);
    ("historicity: same date replaces", `Quick, test_historicity_same_date_replaces);
    ("frame: sort/filter", `Quick, test_frame_sort_filter);
  ]
