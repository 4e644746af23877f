(* SQL target: generation (paper Section 5.1 fragments), the in-memory
   engine, and end-to-end equivalence with the reference interpreter. *)
open Matrix
open Helpers
module M = Mappings

let insert_for mapping name =
  match M.Mapping.tgd_for mapping name with
  | None -> Alcotest.failf "no tgd for %s" name
  | Some tgd -> (
      match Relational.Sql_gen.insert_of_tgd mapping tgd with
      | Ok i -> i
      | Error msg -> Alcotest.failf "sql gen failed for %s: %s" name msg)

(* --- SQL text --- *)

let test_sql_join_fragment () =
  let sql =
    Relational.Sql_print.insert_to_string (insert_for (overview_mapping ()) "RGDP")
  in
  Alcotest.(check string) "paper's tgd (2) translation"
    "INSERT INTO RGDP(Q, R, VALUE)\n\
     SELECT C1.Q AS Q, C1.R AS R, C1.VALUE * C2.VALUE AS VALUE\n\
     FROM RGDPPC C1, PQR C2\n\
     WHERE C2.Q = C1.Q AND C2.R = C1.R"
    sql

let test_sql_group_by_fragment () =
  let sql =
    Relational.Sql_print.insert_to_string (insert_for (overview_mapping ()) "GDP")
  in
  Alcotest.(check string) "paper's tgd (3) translation"
    "INSERT INTO GDP(Q, VALUE)\n\
     SELECT Q, SUM(VALUE) AS VALUE\n\
     FROM RGDP\nGROUP BY Q"
    sql

let test_sql_table_fn_fragment () =
  let sql =
    Relational.Sql_print.insert_to_string (insert_for (overview_mapping ()) "GDPT")
  in
  Alcotest.(check string) "paper's tgd (4) translation"
    "INSERT INTO GDPT(Q, VALUE)\nSELECT Q, VALUE\nFROM STL_T(GDP)" sql

let test_ddl_has_primary_keys () =
  let ddl = Relational.Sql_gen.ddl_of_mapping (overview_mapping ()) in
  Alcotest.(check bool) "create gdp" true
    (String.length ddl > 0
    && Astring_contains.contains ddl "CREATE TABLE GDP"
    && Astring_contains.contains ddl "PRIMARY KEY (Q)")

(* --- engine basics --- *)

let lookup_none _ = None

let test_executor_constant_select () =
  let db = Relational.Database.create () in
  let select =
    {
      Relational.Sql_ast.projections = [ (Relational.Sql_ast.Lit (vf 42.), "x") ];
      from = Relational.Sql_ast.Tables [];
      where = [];
      group_by = [];
    }
  in
  match Relational.Executor.rows_of_select db lookup_none select with
  | Ok [ [| v |] ] -> Alcotest.check value "42" (vf 42.) v
  | Ok _ -> Alcotest.fail "expected one row"
  | Error e -> Alcotest.fail e

let test_plan_explain_shapes () =
  let mapping = overview_mapping () in
  let insert = insert_for mapping "RGDP" in
  let plan =
    core_ok
      (Relational.Executor.plan_of_select
         (M.Mapping.target_schema mapping)
            insert.Relational.Sql_ast.select)
  in
  let text = Relational.Plan.explain plan in
  Alcotest.(check bool) "hash join in plan" true
    (Astring_contains.contains text "HASH JOIN");
  Alcotest.(check bool) "scans in plan" true
    (Astring_contains.contains text "SCAN RGDPPC AS C1")

(* --- end-to-end equivalence --- *)

let registries_agree ~names a b =
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name) (Registry.find_exn a name)
        (Registry.find_exn b name))
    names

let overview_names = [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]

let test_sql_target_overview () =
  let reg = overview_registry () in
  let checked = load_overview () in
  let reference = check_ok (Exl.Interp.run checked reg) in
  let via_sql = core_ok (Core.run ~backend:Core.Sql checked reg) in
  registries_agree ~names:overview_names reference via_sql

let test_sql_target_overview_fused () =
  let reg = overview_registry () in
  let checked = load_overview () in
  let reference = check_ok (Exl.Interp.run checked reg) in
  let via_sql =
    core_ok
      (Relational.Sql_target.execute (core_ok (Core.fused_mapping_of checked)) reg)
  in
  registries_agree ~names:overview_names reference via_sql;
  (* Fusion removes the temp tables entirely. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " absent") false (Registry.find via_sql name <> None))
    [ "PCHNG__1"; "PCHNG__2"; "PCHNG__3" ]

let test_sql_views_script () =
  let sql =
    core_ok
      (Relational.Sql_target.script_of_mapping ~views:`Temporaries
         (overview_mapping ()))
  in
  Alcotest.(check bool) "create view" true
    (Astring_contains.contains sql "CREATE VIEW PCHNG__1");
  Alcotest.(check bool) "final insert stays" true
    (Astring_contains.contains sql "INSERT INTO PCHNG")

let test_sql_views_execution () =
  let reg = overview_registry () in
  let checked = load_overview () in
  let reference = check_ok (Exl.Interp.run checked reg) in
  let via_views =
    core_ok
      (Relational.Sql_target.execute ~views:`Temporaries (overview_mapping ()) reg)
  in
  registries_agree ~names:overview_names reference via_views;
  (* the temporaries were never materialized *)
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " empty") 0
        (Cube.cardinality (Registry.find_exn via_views name)))
    [ "PCHNG__1" ]

(* The SQL target computes the interpreter's derived cubes on random
   programs, over [mapping_of] (the fused or the unfused mapping) and
   with [views]. *)
let sql_matches_interp ?views ~mapping_of seed =
  let src, reg = Gen.program_of_seed seed in
  let checked = Exl.Program.load_exn src in
  let reference = check_ok (Exl.Interp.run checked reg) in
  match Relational.Sql_target.execute ?views (core_ok (mapping_of checked)) reg with
  | Error msg -> QCheck.Test.fail_reportf "sql: %s\n%s" msg src
  | Ok via_sql -> (
      match
        Registry.diff ~eps:1e-7 ~names:(Registry.derived_names reference)
          reference via_sql
      with
      | [] -> true
      | problems ->
          QCheck.Test.fail_reportf "%s\non\n%s" (String.concat "\n" problems) src)

let prop_sql_views_matches_interp =
  QCheck.Test.make ~count:30
    ~name:"view-based SQL target == interpreter on random programs" Gen.arb_seed
    (sql_matches_interp ~views:`Temporaries ~mapping_of:Core.mapping_of)

let prop_sql_fused_matches_interp =
  QCheck.Test.make ~count:40
    ~name:"fused SQL target == interpreter on random programs" Gen.arb_seed
    (sql_matches_interp ~mapping_of:Core.fused_mapping_of)

(* --- the SQL parser: printer fixpoint and execution equivalence --- *)

let test_parser_roundtrip_overview () =
  List.iter
    (fun views ->
      let text =
        core_ok
          (Relational.Sql_target.script_of_mapping ~views (overview_mapping ()))
      in
      match Sql_parser.parse_script text with
      | Error msg -> Alcotest.failf "parse failed: %s\n%s" msg text
      | Ok statements ->
          Alcotest.(check string) "printer fixpoint" text
            (Relational.Sql_print.statements_to_string statements))
    [ `None; `Temporaries ]

let test_parser_expressions () =
  let roundtrip src =
    match Sql_parser.parse_expr src with
    | Ok e -> Relational.Sql_print.expr_to_string e
    | Error msg -> Alcotest.failf "parse %s: %s" src msg
  in
  List.iter
    (fun src -> Alcotest.(check string) src src (roundtrip src))
    [
      "C1.Q + 1";
      "COALESCE(C1.VALUE, 0) * COALESCE(C2.VALUE, 0)";
      "100 * (C1.VALUE - C2.VALUE) / C1.VALUE";
      "QUARTER(D)";
      "LOG(2, C1.VALUE)";
      "SUM(VALUE)";
      "'overnight'";
      "PERIOD '2023Q1'";
      "DATE '2023-01-02'";
      "NULL";
    ]

let test_parser_rejects_garbage () =
  List.iter
    (fun src ->
      match Sql_parser.parse_statement src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %s" src)
    [
      "DELETE FROM X";
      "INSERT INTO X(A) SELECT";
      "INSERT INTO X(A) SELECT 1 FROM A B C";
      "CREATE VIEW V(A) SELECT 1";
    ]

let test_parsed_script_executes_equivalently () =
  (* print → parse → execute: same cubes as the reference interpreter *)
  let reg = overview_registry () in
  let checked = load_overview () in
  let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked checked) in
  let text =
    Relational.Sql_print.statements_to_string
      (core_ok
         (Relational.Sql_gen.statements_of_mapping mapping))
  in
  let statements =
    core_ok (Sql_parser.parse_script text)
  in
  let db = Relational.Database.create () in
  List.iter
    (fun schema ->
      Relational.Database.load_cube db
        (Cube.with_schema schema (Registry.find_exn reg schema.Schema.name)))
    mapping.M.Mapping.source;
  (match
     Relational.Executor.run_statements db (M.Mapping.target_schema mapping)
       statements
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "execution of parsed script failed: %s" msg);
  let result =
    Relational.Database.to_registry db ~schemas:mapping.M.Mapping.target
      ~elementary:[]
  in
  let reference = check_ok (Exl.Interp.run checked reg) in
  registries_agree ~names:overview_names reference result

let prop_parser_fixpoint =
  QCheck.Test.make ~count:40 ~name:"SQL parse . print is the identity on generated scripts"
    Gen.arb_seed (fun seed ->
      let src, _ = Gen.program_of_seed seed in
      match Core.sql_of (Exl.Program.load_exn src) with
      | Error msg -> QCheck.Test.fail_reportf "gen: %s" msg
      | Ok text -> (
          match Sql_parser.parse_script text with
          | Error msg -> QCheck.Test.fail_reportf "parse: %s\n%s" msg text
          | Ok statements ->
              let printed = Relational.Sql_print.statements_to_string statements in
              printed = text
              || QCheck.Test.fail_reportf "not a fixpoint:\n%s\nvs\n%s" text printed))

(* --- executor fast paths == the generic row interpreter --- *)

module S = Relational.Sql_ast

let col alias column = S.Col { alias; column }

(* Tables of Any-typed columns; [lookup] resolves each name to its
   schema (the executor's layouts read column names from it). *)
let any_schema name dims =
  Schema.make ~name ~dims:(List.map (fun d -> (d, Domain.Any)) dims) ()

let make_table db name dims rows =
  let t =
    Relational.Database.create_table db ~name ~columns:(dims @ [ "value" ])
  in
  List.iter (Relational.Table.insert t) rows

(* A view over [base] reading every column: scans of it take the generic
   path, because only base tables carry column dictionaries. *)
let view_over ~name ~base dims =
  let columns = dims @ [ "value" ] in
  S.Create_view
    {
      name;
      columns;
      select =
        {
          S.projections = List.map (fun c -> (col base c, c)) columns;
          from = S.Tables [ (base, base) ];
          where = [];
          group_by = [];
        };
    }

(* Runs [select] as an INSERT into a fresh table OUT after [prelude];
   OUT's rows in order. *)
let run_select db lookup ?(prelude = []) select =
  let columns = List.map snd select.S.projections in
  match
    Relational.Executor.run_statements db lookup
      (prelude @ [ S.Insert { S.table = "OUT"; columns; select } ])
  with
  | Error msg -> Error msg
  | Ok _ ->
      Ok
        (match Relational.Database.find db "OUT" with
        | Some t -> Array.to_list (Relational.Table.rows_array t)
        | None -> [])

(* Bit-for-bit: floats by their bits, everything else structurally. *)
let same_bits a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun r1 r2 ->
         Array.length r1 = Array.length r2 && Array.for_all2 same_bits r1 r2)
       a b

let show_rows rows =
  String.concat "\n"
    (List.map
       (fun r ->
         String.concat " | "
           (Array.to_list
              (Array.map
                 (function
                   | Value.Float f -> Printf.sprintf "%h" f
                   | v -> Value.to_string v)
                 r)))
       rows)

let test_join_null_probe_key () =
  let schemas = [ any_schema "A" [ "x" ]; any_schema "B" [ "x" ];
                  any_schema "BB" [ "x" ] ] in
  let lookup name = List.find_opt (fun s -> s.Schema.name = name) schemas in
  let select =
    {
      S.projections = [ (col "L" "x", "x"); (col "R" "value", "value") ];
      from = S.Tables [ ("A", "L"); ("B", "R") ];
      where = [ (col "L" "x", col "R" "x") ];
      group_by = [];
    }
  in
  let rows ~via_view =
    let db = Relational.Database.create () in
    make_table db "A" [ "x" ] [ [| vs "a"; vf 1. |] ];
    make_table db (if via_view then "BB" else "B") [ "x" ]
      [ [| Value.Null; vf 2. |]; [| vs "a"; vf 3. |] ];
    let prelude = if via_view then [ view_over ~name:"B" ~base:"BB" [ "x" ] ] else [] in
    match run_select db lookup ~prelude select with
    | Ok rows -> rows
    | Error msg -> Alcotest.fail msg
  in
  let expected = [ [| vs "a"; vf 3. |] ] in
  Alcotest.(check bool) "generic path: one match" true
    (same_rows expected (rows ~via_view:true));
  Alcotest.(check bool) "vectorized join: the same match" true
    (same_rows expected (rows ~via_view:false))

(* Random base tables T(d, k, value) and U(k, value): temporal [d]
   (dates, periods of every frequency, plus non-temporal values that
   every dimension function maps to Null), [k] mixing Null, [Int 1]
   and [Float 1.], measures of every magnitude plus non-numeric ones.
   Small domains, so dimension tuples repeat.  One T in five is wide:
   100 to 400 rows over a handful of dates in two quarters and a few
   measures, so long runs tie on [d], whole rows repeat (equal rows
   must stay in load order, and [Int 1] and [Float 1.] rows are equal
   but print apart) and groups under [QUARTER(d)] are big. *)
let gen_tables =
  let open QCheck.Gen in
  let freqs =
    Calendar.[ Year; Semester; Quarter; Month; Week; Day ]
  in
  let date =
    map
      (fun n ->
        Calendar.Date.add_days (Calendar.Date.make ~year:2019 ~month:11 ~day:1) n)
      (int_bound 500)
  in
  let d =
    frequency
      [
        (4, map (fun d -> Value.Date d) date);
        ( 4,
          map2
            (fun f d -> Value.Period (Calendar.Period.of_date f d))
            (oneofl freqs) date );
        (1, return Value.Null);
        (1, oneofl [ Value.Int 1; Value.String "x" ]);
      ]
  in
  let k =
    oneofl
      [ Value.Null; Value.Int 1; Value.Float 1.; Value.Int 2; Value.Float 2.5;
        Value.String "a"; Value.String "b" ]
  in
  let measure =
    frequency
      [
        ( 6,
          map2
            (fun m e -> Value.Float (m *. (10. ** float_of_int e)))
            (float_range (-1.) 1.) (int_range (-3) 12) );
        (2, map (fun i -> Value.Int i) (int_range (-50) 50));
        (1, return Value.Null);
        (1, oneofl [ Value.String "x"; Value.Bool true ]);
      ]
  in
  let wide_d =
    frequency
      [
        ( 8,
          map
            (fun n ->
              Value.Date
                (Calendar.Date.add_days (Calendar.Date.make ~year:2020 ~month:3 ~day:30) n))
            (int_bound 4) );
        (1, return Value.Null);
      ]
  in
  let wide_measure =
    oneofl [ Value.Int 1; Value.Float 1.; Value.Float 2.5; Value.Float (-0.5); Value.Null ]
  in
  let t_rows =
    frequency
      [
        (4, list_size (int_bound 60) (map3 (fun d k m -> [| d; k; m |]) d k measure));
        ( 1,
          list_size (int_range 100 400)
            (map3 (fun d k m -> [| d; k; m |]) wide_d k wide_measure) );
      ]
  in
  let u_rows = list_size (int_bound 12) (map2 (fun k m -> [| k; m |]) k measure) in
  pair t_rows u_rows

let arb_tables =
  QCheck.make gen_tables ~print:(fun (t, u) ->
      Printf.sprintf "T:\n%s\nU:\n%s" (show_rows t) (show_rows u))

let fast_path_schemas =
  List.concat_map
    (fun (name, dims) ->
      [ any_schema name dims; any_schema (name ^ "_BASE") dims ])
    [ ("T", [ "d"; "k" ]); ("U", [ "k" ]) ]

let fast_path_lookup name =
  List.find_opt (fun s -> s.Schema.name = name) fast_path_schemas

let aggregate_select keys aggr =
  {
    S.projections =
      List.mapi (fun i e -> (e, Printf.sprintf "k%d" i)) keys
      @ [ (S.Agg_call (aggr, col "T" "value"), "value") ];
    from = S.Tables [ ("T", "T") ];
    where = [];
    group_by = keys;
  }

(* Every dimension function on [d] next to the plain [k], plain keys,
   and no keys at all, under every aggregator (First and Last read the
   bag order itself). *)
let aggregate_selects =
  let key_sets =
    List.map
      (fun fn -> [ S.Dim_call (fn, col "T" "d"); col "T" "k" ])
      (Ops.Dim_fn.names ())
    @ [ [ col "T" "d"; col "T" "k" ]; [ col "T" "k" ]; [] ]
  in
  List.concat_map
    (fun keys -> List.map (aggregate_select keys) Stats.Aggregate.all)
    key_sets

let join_selects =
  let join (lt, la) (rt, ra) pairs =
    {
      S.projections =
        [ (col la "value", "lv"); (col ra "value", "rv") ]
        @ List.mapi (fun i (l, _) -> (col la l, Printf.sprintf "j%d" i)) pairs;
      from = S.Tables [ (lt, la); (rt, ra) ];
      where = List.map (fun (l, r) -> (col la l, col ra r)) pairs;
      group_by = [];
    }
  in
  [
    join ("T", "L") ("U", "R") [ ("k", "k") ];
    join ("U", "L") ("T", "R") [ ("k", "k") ];
    join ("T", "L") ("T", "R") [ ("d", "d"); ("k", "k") ];
  ]

(* [selects] over base tables T and U, and over views T and U of base
   tables T_BASE and U_BASE (the generic path), with the vectorized
   counters each run moved. *)
let run_both (t_rows, u_rows) selects =
  let run ~via_view select =
    let db = Relational.Database.create () in
    let suffix = if via_view then "_BASE" else "" in
    make_table db ("T" ^ suffix) [ "d"; "k" ] t_rows;
    make_table db ("U" ^ suffix) [ "k" ] u_rows;
    let prelude =
      if via_view then
        [ view_over ~name:"T" ~base:"T_BASE" [ "d"; "k" ];
          view_over ~name:"U" ~base:"U_BASE" [ "k" ] ]
      else []
    in
    let c = Obs.create ~spans:false () in
    let rows =
      Obs.with_collector c (fun () ->
          run_select db fast_path_lookup ~prelude select)
    in
    let counter = Obs.Metrics.counter_value c.Obs.metrics in
    ( rows,
      counter "executor.vectorized_aggregates"
      + counter "executor.vectorized_joins" )
  in
  List.for_all
    (fun select ->
      match (run ~via_view:false select, run ~via_view:true select) with
      | (Ok fast, 1), (Ok generic, 0) ->
          same_rows fast generic
          || QCheck.Test.fail_reportf
               "fast path differs from the generic path on %s\nfast:\n%s\ngeneric:\n%s"
               (Relational.Sql_print.select_to_string select)
               (show_rows fast) (show_rows generic)
      | (Error a, _), (Error b, _) -> a = b || QCheck.Test.fail_reportf "errors differ: %s / %s" a b
      | (fast, nf), (generic, ng) ->
          let show = function Ok rows -> show_rows rows | Error m -> "error: " ^ m in
          QCheck.Test.fail_reportf
            "on %s: fast (%d vectorized) %s\ngeneric (%d vectorized) %s"
            (Relational.Sql_print.select_to_string select)
            nf (show fast) ng (show generic))
    selects

(* The same cube, loaded in two orders: aggregates must not depend on
   the order rows were loaded in (float sums included). *)
let order_independent t_rows =
  let cube = Cube.create (any_schema "T" [ "d"; "k" ]) in
  List.iter
    (fun row -> Cube.set cube (Tuple.of_array (Array.sub row 0 2)) row.(2))
    t_rows;
  let rows = List.map (fun (k, v) -> Tuple.append k v) (Cube.to_alist cube) in
  let run rows select =
    let db = Relational.Database.create () in
    make_table db "T" [ "d"; "k" ] rows;
    run_select db fast_path_lookup select
  in
  List.for_all
    (fun select ->
      match (run rows select, run (List.rev rows) select) with
      | Ok a, Ok b ->
          same_rows a b
          || QCheck.Test.fail_reportf "load order changes %s:\n%s\nvs\n%s"
               (Relational.Sql_print.select_to_string select)
               (show_rows a) (show_rows b)
      | Error a, Error b -> a = b
      | _ -> QCheck.Test.fail_reportf "only one load order fails")
    aggregate_selects

let sql_qcheck_count =
  Helpers.qcheck_count ~var:"EXL_SQL_QCHECK_COUNT" ~default:100

let prop_fast_paths_match_generic =
  QCheck.Test.make ~count:sql_qcheck_count
    ~name:"executor fast paths == generic path, bit for bit, any load order"
    arb_tables (fun ((t_rows, _) as tables) ->
      run_both tables (aggregate_selects @ join_selects)
      && order_independent t_rows)

(* The dispatcher's Sql target == the interpreter on random
   programs (helpers.ml). *)
let prop_sql_matches_interp =
  prop_backend_matches_interp ~count:60
    ~name:"SQL target == interpreter on random programs" Core.Sql

(* A derived table with two measures for one key is an [Error] of
   [execute], not an exception. *)
let test_execute_clash_is_error () =
  let mapping, registry = clashing_target () in
  check_names_shared "Sql_target.execute"
    (Relational.Sql_target.execute mapping registry)

let suite =
  [
    ("execute: clashing writes are an Error", `Quick, test_execute_clash_is_error);
    ("sql text: join fragment", `Quick, test_sql_join_fragment);
    ("sql text: group by fragment", `Quick, test_sql_group_by_fragment);
    ("sql text: table function fragment", `Quick, test_sql_table_fn_fragment);
    ("sql text: ddl", `Quick, test_ddl_has_primary_keys);
    ("executor: constant select", `Quick, test_executor_constant_select);
    ("executor: plan explain", `Quick, test_plan_explain_shapes);
    ("executor: null probe key joins nothing else", `Quick, test_join_null_probe_key);
    QCheck_alcotest.to_alcotest prop_fast_paths_match_generic;
    ("end-to-end: overview", `Quick, test_sql_target_overview);
    ("end-to-end: overview fused", `Quick, test_sql_target_overview_fused);
    ("views: script", `Quick, test_sql_views_script);
    ("views: execution", `Quick, test_sql_views_execution);
    QCheck_alcotest.to_alcotest prop_sql_views_matches_interp;
    ("parser: overview roundtrip", `Quick, test_parser_roundtrip_overview);
    ("parser: expressions", `Quick, test_parser_expressions);
    ("parser: rejects garbage", `Quick, test_parser_rejects_garbage);
    ("parser: parsed script executes", `Quick, test_parsed_script_executes_equivalently);
    QCheck_alcotest.to_alcotest prop_parser_fixpoint;
    QCheck_alcotest.to_alcotest prop_sql_fused_matches_interp;
    QCheck_alcotest.to_alcotest prop_sql_matches_interp;
  ]
