(* The selection operator: filter(C, dim = literal, ...) — an EXL
   extension (slice/dice) that exercises constants in tgd atoms across
   every layer of the pipeline. Also covers the normalizer's CSE pass. *)
open Matrix
open Helpers

let program_source =
  {|
cube DEP(m: month, instrument: string);
OVERNIGHT := filter(DEP, instrument = "overnight");
ON_TOTAL := sum(OVERNIGHT, group by m);
|}

let data () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "DEP"
       [ ("m", Domain.Period (Some Calendar.Month)); ("instrument", Domain.String) ]
       [
         [ vm 2024 1; vs "overnight"; vf 10. ];
         [ vm 2024 1; vs "savings"; vf 99. ];
         [ vm 2024 2; vs "overnight"; vf 12. ];
         [ vm 2024 2; vs "savings"; vf 88. ];
       ]);
  reg

let test_parse_filter () =
  let e = check_ok (Exl.Parser.parse_expr "filter(DEP, instrument = \"overnight\")") in
  match e with
  | Exl.Ast.Call { fn = "filter"; args = [ Cube_ref "DEP" ]; conditions; _ } ->
      Alcotest.(check int) "one condition" 1 (List.length conditions);
      let dim, v = List.hd conditions in
      Alcotest.(check string) "dim" "instrument" dim;
      Alcotest.check value "literal" (vs "overnight") v
  | _ -> Alcotest.fail "filter parse"

let test_parse_numeric_condition () =
  let e = check_ok (Exl.Parser.parse_expr "filter(C, k = -2)") in
  match e with
  | Exl.Ast.Call { conditions = [ ("k", v) ]; _ } ->
      Alcotest.check value "negative literal" (vf (-2.)) v
  | _ -> Alcotest.fail "numeric condition parse"

let test_pretty_roundtrip () =
  let p = check_ok (Exl.Parser.parse program_source) in
  let p2 = check_ok (Exl.Parser.parse (Exl.Pretty.program_to_string p)) in
  Alcotest.(check bool) "roundtrip" true (Exl.Ast.equal_program p p2)

let test_check_filter () =
  let checked = Exl.Program.load_exn program_source in
  let schema = Exl.Typecheck.Env.schema_exn checked.Exl.Typecheck.env "OVERNIGHT" in
  Alcotest.(check (list string)) "same dims" [ "m"; "instrument" ]
    (Schema.dim_names schema)

let test_check_rejects_bad_dim () =
  ignore
    (check_err "bad dim"
       (Exl.Program.load "cube A(x: int);\nB := filter(A, z = 1);\n"))

let test_check_rejects_bad_literal () =
  ignore
    (check_err "bad literal"
       (Exl.Program.load "cube A(x: int);\nB := filter(A, x = \"oops\");\n"))

let test_check_rejects_conditions_elsewhere () =
  ignore
    (check_err "conditions on sum"
       (Exl.Program.load "cube A(x: int);\nB := sum(A, x = 1);\n"))

let test_check_temporal_literal_coercion () =
  let checked =
    Exl.Program.load_exn "cube A(q: quarter);\nB := filter(A, q = \"2024Q1\");\n"
  in
  Alcotest.(check int) "well-typed" 1
    (List.length checked.Exl.Typecheck.statements)

let test_interp_filter () =
  let out = check_ok (Exl.Program.run_source program_source (data ())) in
  let overnight = Registry.find_exn out "OVERNIGHT" in
  Alcotest.(check int) "two rows kept" 2 (Cube.cardinality overnight);
  let total = Registry.find_exn out "ON_TOTAL" in
  Alcotest.check value "jan" (vf 10.) (Option.get (Cube.find total (key [ vm 2024 1 ])));
  Alcotest.check value "feb" (vf 12.) (Option.get (Cube.find total (key [ vm 2024 2 ])))

let test_tgd_has_constant () =
  let g = check_ok (Mappings.Generate.of_source program_source) in
  match Mappings.Mapping.tgd_for g.Mappings.Generate.mapping "OVERNIGHT" with
  | Some tgd ->
      Alcotest.(check string) "constant in atom"
        "DEP(m, \"overnight\", m1) → OVERNIGHT(m, \"overnight\", m1)"
        (Mappings.Tgd.to_string tgd)
  | None -> Alcotest.fail "no tgd"

let test_sql_where_literal () =
  let checked = Exl.Program.load_exn program_source in
  let sql = core_ok (Core.sql_of checked) in
  Alcotest.(check bool) "where clause" true
    (Astring_contains.contains sql "C1.INSTRUMENT = 'overnight'")

let test_r_filter_line () =
  let checked = Exl.Program.load_exn program_source in
  let r = core_ok (Core.r_of checked) in
  Alcotest.(check bool) "R selection" true
    (Astring_contains.contains r "DEP$instrument == \"overnight\"")

let test_kettle_filter_step () =
  let checked = Exl.Program.load_exn program_source in
  let xml = core_ok (Core.kettle_of checked) in
  Alcotest.(check bool) "FilterRows step" true
    (Astring_contains.contains xml "<type>FilterRows</type>")

let test_all_backends_agree () =
  let checked = Exl.Program.load_exn program_source in
  match Core.verify_all_backends checked (data ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_filter_on_temporal_dim_all_backends () =
  let source =
    "cube A(q: quarter, r: string);\nQ1 := filter(A, q = \"2024Q1\");\nB := 2 * Q1;\n"
  in
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A"
       [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
       [
         [ vq 2024 1; vs "a"; vf 1. ];
         [ vq 2024 2; vs "a"; vf 2. ];
         [ vq 2024 1; vs "b"; vf 3. ];
       ]);
  let checked = Exl.Program.load_exn source in
  (match Core.verify_all_backends checked reg with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let out = core_ok (Core.run checked reg) in
  Alcotest.(check int) "two kept" 2
    (Cube.cardinality (Registry.find_exn out "B"))

let test_filter_composes_with_join () =
  (* filtered cube used inside a vectorial op: the filter tgd stays its
     own tuple-level tgd with constants, then joins downstream *)
  let source =
    {|
cube A(m: month, instrument: string);
cube W(m: month, instrument: string);
AO := filter(A, instrument = "overnight");
WO := filter(W, instrument = "overnight");
RATIO := AO / WO;
|}
  in
  let reg = Registry.create () in
  let mk name v =
    cube_of name
      [ ("m", Domain.Period (Some Calendar.Month)); ("instrument", Domain.String) ]
      [
        [ vm 2024 1; vs "overnight"; vf v ];
        [ vm 2024 1; vs "savings"; vf 100. ];
      ]
  in
  Registry.add reg Registry.Elementary (mk "A" 10.);
  Registry.add reg Registry.Elementary (mk "W" 4.);
  let checked = Exl.Program.load_exn source in
  (match Core.verify_all_backends checked reg with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let out = core_ok (Core.run checked reg) in
  Alcotest.check value "ratio" (vf 2.5)
    (Option.get
       (Cube.find (Registry.find_exn out "RATIO")
          (key [ vm 2024 1; vs "overnight" ])))

(* --- CSE --- *)

let test_cse_dedupes_shift_temps () =
  let source =
    "cube T(m: month);\nG := 100 * (T - shift(T, 1)) / shift(T, 1);\n"
  in
  let checked = Exl.Program.load_exn source in
  let normalized = check_ok (Exl.Normalize.checked checked) in
  let temps =
    List.filter
      (fun (s : Exl.Ast.stmt) -> Exl.Normalize.is_temp s.Exl.Ast.lhs)
      normalized.Exl.Typecheck.statements
  in
  (* shift appears twice in the source but only one temp remains *)
  let shift_temps =
    List.filter
      (fun (s : Exl.Ast.stmt) ->
        match s.Exl.Ast.rhs with
        | Exl.Ast.Call { fn = "shift"; _ } -> true
        | _ -> false)
      temps
  in
  Alcotest.(check int) "one shift temp" 1 (List.length shift_temps)

let test_cse_preserves_semantics () =
  let source =
    "cube T(m: month);\nG := 100 * (T - shift(T, 1)) / shift(T, 1);\n"
  in
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "T"
       [ ("m", Domain.Period (Some Calendar.Month)) ]
       (List.init 6 (fun i -> [ vm 2024 (i + 1); vf (float_of_int (10 + i)) ])));
  let checked = Exl.Program.load_exn source in
  match Core.verify_all_backends checked reg with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let suite =
  [
    ("parse: filter conditions", `Quick, test_parse_filter);
    ("parse: numeric condition", `Quick, test_parse_numeric_condition);
    ("pretty: roundtrip", `Quick, test_pretty_roundtrip);
    ("check: filter type", `Quick, test_check_filter);
    ("check: rejects bad dim", `Quick, test_check_rejects_bad_dim);
    ("check: rejects bad literal", `Quick, test_check_rejects_bad_literal);
    ("check: conditions only on filter", `Quick, test_check_rejects_conditions_elsewhere);
    ("check: temporal literal coercion", `Quick, test_check_temporal_literal_coercion);
    ("interp: filter", `Quick, test_interp_filter);
    ("mapping: tgd with constant", `Quick, test_tgd_has_constant);
    ("sql: where literal", `Quick, test_sql_where_literal);
    ("vector: R selection", `Quick, test_r_filter_line);
    ("etl: kettle FilterRows", `Quick, test_kettle_filter_step);
    ("all backends agree", `Quick, test_all_backends_agree);
    ("temporal filter on all backends", `Quick, test_filter_on_temporal_dim_all_backends);
    ("filter composes with join", `Quick, test_filter_composes_with_join);
    ("cse: dedupes shift temps", `Quick, test_cse_dedupes_shift_temps);
    ("cse: preserves semantics", `Quick, test_cse_preserves_semantics);
  ]
