(* The public Core facade. *)
open Matrix
open Helpers

let test_backend_names () =
  Alcotest.(check (list string)) "names"
    [ "reference"; "chase"; "sql"; "vector"; "etl" ]
    (List.map Core.backend_name Core.all_backends)

let test_compile_reports_errors () =
  match Core.compile "B := MISSING + 1;\n" with
  | Error msg ->
      Alcotest.(check bool) "mentions cube" true
        (Astring_contains.contains msg "MISSING")
  | Ok _ -> Alcotest.fail "expected a compile error"

let test_artifacts_all_produced () =
  let program = Core.compile_exn Helpers.overview_program in
  List.iter
    (fun (label, produce) ->
      let text = core_ok (produce program) in
      Alcotest.(check bool) (label ^ " non-empty") true (String.length text > 0))
    [
      ("tgds", Core.tgds_of);
      ("sql", Core.sql_of ?fused:None);
      ("ddl", Core.ddl_of);
      ("r", Core.r_of);
      ("matlab", Core.matlab_of);
      ("kettle", Core.kettle_of);
    ]

(* A string constant holding both quote characters and a backslash
   is a valid literal in each scripting language: SQL doubles the
   single quote, R backslash-escapes the double quote and the
   backslash, Matlab doubles the double quote.  The SQL is a fixpoint
   of the test-side parser and the printer. *)
let test_string_literals_quoted () =
  let program =
    Core.compile_exn
      "cube A(m: month, shop: string);\nB := filter(A, shop = \"o'r \\\"b\\\\\");\n"
  in
  List.iter
    (fun (label, produce, literal) ->
      let text = core_ok (produce program) in
      Alcotest.(check bool)
        (Printf.sprintf "%s holds %s" label literal)
        true
        (Astring_contains.contains text literal))
    [
      ("sql", Core.sql_of ?fused:None, {|'o''r "b\'|});
      ("r", Core.r_of, {|"o'r \"b\\"|});
      ("matlab", Core.matlab_of, {|"o'r ""b\"|});
    ];
  let sql = core_ok (Core.sql_of program) in
  Alcotest.(check string) "SQL reads back" sql
    (Relational.Sql_print.statements_to_string (core_ok (Sql_parser.parse_script sql)))

let test_verify_reports_differences () =
  (* A deliberately broken back end comparison: feed verify a program
     whose reference run fails (log of a negative constant). *)
  match Core.compile "K := ln(0 - 1);\n" with
  | Error _ -> () (* rejected at compile time is fine too *)
  | Ok program -> (
      match Core.verify_all_backends program (Registry.create ()) with
      | Error msg ->
          Alcotest.(check bool) "explains failure" true (String.length msg > 0)
      | Ok () -> Alcotest.fail "expected a failure report")

let test_r_io_primitives () =
  let program = Core.compile_exn Helpers.overview_program in
  let r =
    core_ok
      (Vector.Vector_target.r_script_of_mapping ~io:true
         (core_ok (Core.mapping_of program)))
  in
  Alcotest.(check bool) "reads sources" true
    (Astring_contains.contains r "PDR <- read.csv(\"PDR.csv\")");
  Alcotest.(check bool) "writes finals" true
    (Astring_contains.contains r "write.csv(PCHNG, \"PCHNG.csv\"");
  Alcotest.(check bool) "temps not written" false
    (Astring_contains.contains r "write.csv(PCHNG__1")

let test_run_on_every_backend () =
  let program = Core.compile_exn Helpers.overview_program in
  let data = overview_registry () in
  List.iter
    (fun backend ->
      let result = core_ok (Core.run ~backend program data) in
      Alcotest.(check bool)
        (Core.backend_name backend ^ " produced PCHNG")
        true
        (Cube.cardinality (Registry.find_exn result "PCHNG") > 0))
    Core.all_backends

(* A registry cube whose arity differs from its source schema is an
   [Error] from every target, never an escaping exception: through
   [Core.run] and through the dispatcher's door. *)
let test_arity_mismatch_is_an_error () =
  let program = Core.compile_exn Helpers.overview_program in
  let data = overview_registry () in
  Registry.add data Registry.Elementary
    (cube_of "PDR" [ ("r", Domain.String) ] [ [ vs "north"; vf 1. ] ]);
  List.iter
    (fun backend ->
      match Core.run ~backend program data with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: expected an error" (Core.backend_name backend))
    [ Core.Chase; Core.Sql; Core.Vector_engine; Core.Etl_engine ];
  let mapping = core_ok (Core.mapping_of program) in
  List.iter
    (fun target ->
      match
        Engine.Target.guarded_execute ~cubes:[ "PDR" ] target mapping data
      with
      | Error (Engine.Faults.Execute_error _) -> ()
      | Error kind ->
          Alcotest.failf "%s: %s" target.Engine.Target.name
            (Engine.Faults.kind_to_string kind)
      | Ok _ -> Alcotest.failf "%s: expected an error" target.Engine.Target.name)
    [ Engine.Target.chase; Engine.Target.sql; Engine.Target.vector; Engine.Target.etl_full ]

let suite =
  [
    ("backend names", `Quick, test_backend_names);
    ("compile reports errors", `Quick, test_compile_reports_errors);
    ("all artifacts produced", `Quick, test_artifacts_all_produced);
    ("string literals quoted per target", `Quick, test_string_literals_quoted);
    ("verify reports differences", `Quick, test_verify_reports_differences);
    ("r io primitives", `Quick, test_r_io_primitives);
    ("run on every backend", `Quick, test_run_on_every_backend);
    ("arity mismatch is an error", `Quick, test_arity_mismatch_is_an_error);
  ]
