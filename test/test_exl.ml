(* Front-end tests: lexer, parser, typechecker, normalizer, interpreter. *)
open Matrix
open Helpers

let parse_ok src = check_ok (Exl.Parser.parse src)
let parse_err src = check_err ("parse " ^ src) (Exl.Parser.parse src)

let load_err src = check_err "load" (Exl.Program.load src)

(* --- lexer --- *)

let test_lexer_basic () =
  let tokens = check_ok (Exl.Lexer.tokenize "A := B + 2.5; -- comment\n") in
  let kinds = List.map (fun t -> t.Exl.Token.token) tokens in
  Alcotest.(check int) "token count" 7 (List.length kinds);
  match kinds with
  | [ IDENT "A"; ASSIGN; IDENT "B"; PLUS; NUMBER n; SEMI; EOF ] ->
      Alcotest.(check (float 0.)) "number" 2.5 n
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_keywords_case_insensitive () =
  let tokens = check_ok (Exl.Lexer.tokenize "CUBE Group BY aS") in
  let kinds = List.map (fun t -> t.Exl.Token.token) tokens in
  Alcotest.(check bool) "keywords"
    true
    (kinds = Exl.Token.[ KW_CUBE; KW_GROUP; KW_BY; KW_AS; EOF ])

let test_lexer_rejects_garbage () =
  let msg = check_err "lex" (Exl.Lexer.tokenize "A := $3;") in
  Alcotest.(check bool) "mentions char" true
    (String.length msg > 0)

let test_lexer_positions () =
  let tokens = check_ok (Exl.Lexer.tokenize "A :=\n  B;") in
  let b = List.nth tokens 2 in
  Alcotest.(check int) "line" 2 b.Exl.Token.pos.Exl.Ast.line;
  Alcotest.(check int) "col" 3 b.Exl.Token.pos.Exl.Ast.col

(* --- parser --- *)

let test_parse_precedence () =
  let e = check_ok (Exl.Parser.parse_expr "A + B * C") in
  match e with
  | Exl.Ast.Binop (Ops.Binop.Add, Cube_ref "A", Binop (Ops.Binop.Mul, _, _)) ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_power_right_assoc () =
  let e = check_ok (Exl.Parser.parse_expr "A ^ B ^ C") in
  match e with
  | Exl.Ast.Binop (Ops.Binop.Pow, Cube_ref "A", Binop (Ops.Binop.Pow, _, _)) ->
      ()
  | _ -> Alcotest.fail "power should be right-associative"

let test_parse_unary_minus () =
  let e = check_ok (Exl.Parser.parse_expr "-A * B") in
  match e with
  | Exl.Ast.Binop (Ops.Binop.Mul, Neg (Cube_ref "A"), Cube_ref "B") -> ()
  | _ -> Alcotest.fail "unary minus binds tighter than *"

let test_parse_group_by () =
  let e = check_ok (Exl.Parser.parse_expr "avg(PDR, group by quarter(d) as q, r)") in
  match e with
  | Exl.Ast.Call { fn = "avg"; args = [ Cube_ref "PDR" ]; group_by = Some items; _ }
    ->
      Alcotest.(check int) "two items" 2 (List.length items);
      let first = List.hd items in
      Alcotest.(check (option string)) "fn" (Some "quarter") first.Exl.Ast.fn;
      Alcotest.(check string) "src" "d" first.Exl.Ast.src;
      Alcotest.(check (option string)) "alias" (Some "q") first.Exl.Ast.alias
  | _ -> Alcotest.fail "group by parse"

let test_parse_decl () =
  let p = parse_ok "cube PDR(d: date, r: string): float;" in
  match p with
  | [ Exl.Ast.Decl d ] ->
      Alcotest.(check string) "name" "PDR" d.Exl.Ast.d_name;
      Alcotest.(check int) "dims" 2 (List.length d.Exl.Ast.d_dims)
  | _ -> Alcotest.fail "decl parse"

let test_parse_errors () =
  List.iter
    (fun src -> ignore (parse_err src))
    [
      "A := ;";
      "A := B +;";
      "cube A(;";
      "A := f(x, group by a, b);extra";
      "A := (B;";
      "A B;";
    ]

let test_group_by_must_be_last () =
  let msg = parse_err "A := avg(B, group by x, 3);" in
  Alcotest.(check bool) "explains" true
    (String.length msg > 0)

let test_roundtrip_overview () =
  let p = parse_ok Helpers.overview_program in
  let printed = Exl.Pretty.program_to_string p in
  let p2 = parse_ok printed in
  Alcotest.(check bool) "roundtrip" true (Exl.Ast.equal_program p p2)

(* Regressions found by the scenario fuzzer (exlc fuzz, roundtrip axis). *)

let test_pretty_float_shortest_roundtrip () =
  (* %.12g would print 0.30000000000000004 (the fold of 0.1 + 0.2) as
     0.3 — a different float; the printer must widen until the decimal
     form parses back exactly *)
  List.iter
    (fun f ->
      let s = Exl.Pretty.number_to_string f in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%h round-trips via %s" f s)
        f (float_of_string s))
    [ 0.1 +. 0.2; 0.3; 1. /. 3.; 1.05 *. 0.7; 2.675; -0.30000000000000004 ];
  (* end to end: normalization folds the constant, pretty must not lose
     the fold's low bits *)
  let p =
    Exl.Normalize.program
      (parse_ok "cube A(t: quarter);\nB := A * (0.1 + 0.2);\n")
  in
  let p2 = parse_ok (Exl.Pretty.program_to_string p) in
  Alcotest.(check bool) "folded constant round-trips" true
    (Exl.Ast.equal_program p p2)

let test_pretty_string_escapes_lexable () =
  (* OCaml's %S emits \r, \b and decimal escapes the EXL lexer rejects;
     the printer must stick to the lexer's repertoire *)
  List.iter
    (fun text ->
      let lit = Exl.Pretty.literal_to_string (Value.String text) in
      let src = Printf.sprintf "cube A(r: string);\nB := filter(A, r = %s);\n" lit in
      let p = parse_ok src in
      match Exl.Ast.stmts p with
      | [ { rhs = Exl.Ast.Call { conditions = [ (_, Value.String back) ]; _ }; _ } ] ->
          Alcotest.(check string) ("escape of " ^ String.escaped text) text back
      | _ -> Alcotest.fail "unexpected parse of filter condition")
    [ "qu\"ote"; "back\\slash"; "tab\tsep"; "new\nline"; "caf\xc3\xa9"; " pad "; "cr\rlf" ]

let test_negative_literal_spellings_equal () =
  (* the lexer has no negative-number token: Number (-1.) (a constant
     fold) and Neg (Number 1.) (a re-parse) print identically, so they
     must compare equal *)
  Alcotest.(check bool) "Number (-1.) = Neg (Number 1.)" true
    (Exl.Ast.equal_expr (Exl.Ast.Number (-1.)) (Exl.Ast.Neg (Exl.Ast.Number 1.)));
  let p =
    Exl.Normalize.program
      (parse_ok "cube A(t: quarter);\nB := A + A;\nC := shift(B, -1);\n")
  in
  let p2 = parse_ok (Exl.Pretty.program_to_string p) in
  Alcotest.(check bool) "normalized shift(-1) round-trips" true
    (Exl.Ast.equal_program p p2)

(* --- typechecker --- *)

let test_check_overview () =
  let checked = load_overview () in
  let env = checked.Exl.Typecheck.env in
  let pqr = Exl.Typecheck.Env.schema_exn env "PQR" in
  Alcotest.(check (list string)) "PQR dims" [ "q"; "r" ] (Schema.dim_names pqr);
  Alcotest.(check (option string))
    "q domain" (Some "quarter")
    (Option.map Domain.to_string (Schema.dim_domain pqr "q"));
  let gdp = Exl.Typecheck.Env.schema_exn env "GDP" in
  Alcotest.(check (list string)) "GDP dims" [ "q" ] (Schema.dim_names gdp);
  let pchng = Exl.Typecheck.Env.schema_exn env "PCHNG" in
  Alcotest.(check (list string)) "PCHNG dims" [ "q" ] (Schema.dim_names pchng)

let test_check_rejects_redefinition () =
  let msg =
    load_err "cube A(x: int);\nB := A + 1;\nB := A + 2;\n"
  in
  Alcotest.(check bool) "mentions B" true
    (String.length msg > 0 && String.index_opt msg 'B' <> None)

let test_check_rejects_unknown_cube () =
  ignore (load_err "B := MISSING + 1;\n")

let test_check_rejects_dim_mismatch () =
  ignore
    (load_err
       "cube A(x: int);\ncube B(y: int);\nC := A + B;\n")

let test_check_rejects_unknown_operator () =
  ignore (load_err "cube A(x: int);\nB := frobnicate(A);\n")

let test_check_rejects_recursion () =
  (* Self reference: lhs not yet defined when rhs is checked. *)
  ignore (load_err "cube A(x: int);\nB := B + A;\n")

let test_check_rejects_groupby_on_missing_dim () =
  ignore (load_err "cube A(x: int);\nB := sum(A, group by z);\n")

let test_check_rejects_quarter_on_int () =
  ignore (load_err "cube A(x: int);\nB := sum(A, group by quarter(x));\n")

let test_check_rejects_blackbox_without_time () =
  ignore (load_err "cube A(x: int);\nB := stl_t(A);\n")

let test_check_shift_needs_temporal () =
  ignore (load_err "cube A(x: int);\nB := shift(A, 1);\n")

let test_check_scalar_param_count () =
  ignore (load_err "cube A(t: quarter);\nB := log(2, 3, A);\n")

let test_check_total_aggregate_is_zero_dim () =
  let checked =
    check_ok (Exl.Program.load "cube A(x: int);\nB := sum(A);\n")
  in
  let b = Exl.Typecheck.Env.schema_exn checked.Exl.Typecheck.env "B" in
  Alcotest.(check int) "0-dim" 0 (Schema.arity b)

let test_check_measure_must_be_numeric () =
  ignore (load_err "cube A(x: int): string;\n")

(* --- normalizer --- *)

let test_normalize_overview () =
  let checked = load_overview () in
  let normalized = check_ok (Exl.Normalize.checked checked) in
  Alcotest.(check bool) "is_normal" true
    (Exl.Normalize.is_normal normalized.Exl.Typecheck.program);
  (* PCHNG := 100 * (GDPT - shift(GDPT,1)) / GDPT has 4 operators ->
     4 statements; the others stay single. *)
  let stmts = Exl.Ast.stmts normalized.Exl.Typecheck.program in
  Alcotest.(check int) "statement count" 8 (List.length stmts)

let test_normalize_preserves_semantics () =
  let reg = overview_registry () in
  let checked = load_overview () in
  let normalized = check_ok (Exl.Normalize.checked checked) in
  let out1 = check_ok (Exl.Interp.run checked reg) in
  let out2 = check_ok (Exl.Interp.run normalized reg) in
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Registry.find_exn out1 name)
        (Registry.find_exn out2 name))
    [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]

let test_normalize_constant_folding () =
  let checked =
    Exl.Program.load_exn "cube A(x: int);\nB := A * (60 * 60);\nC := A + log(2, 8);\n"
  in
  let normalized = check_ok (Exl.Normalize.checked checked) in
  let stmts = Exl.Ast.stmts normalized.Exl.Typecheck.program in
  (* both statements stay single: the constant subtrees folded away *)
  Alcotest.(check int) "no temps" 2 (List.length stmts);
  match (List.nth stmts 0).Exl.Ast.rhs with
  | Exl.Ast.Binop (Ops.Binop.Mul, _, Exl.Ast.Number f) ->
      Alcotest.(check (float 0.)) "3600" 3600. f
  | _ -> Alcotest.fail "expected folded constant"

let test_normalize_folding_keeps_undefined () =
  (* 1/0 must not fold away: the runtime error should still surface *)
  let checked = Exl.Program.load_exn "cube A(x: int);\nB := A + 1 / 0;\n" in
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 1. ] ]);
  match Exl.Interp.run checked reg with
  | Error e ->
      Alcotest.(check bool) "mentions undefined" true
        (Astring_contains.contains (Exl.Errors.to_string e) "undefined")
  | Ok _ -> Alcotest.fail "expected a runtime error"

let test_normalize_temp_names () =
  Alcotest.(check bool) "temp" true (Exl.Normalize.is_temp "PCHNG__2");
  Alcotest.(check bool) "not temp" false (Exl.Normalize.is_temp "PCHNG");
  Alcotest.(check string) "base" "PCHNG" (Exl.Normalize.temp_base "PCHNG__2")

(* --- interpreter --- *)

let test_interp_scalar_mult () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "C1"
       [ ("x", Domain.Int) ]
       [ [ vi 1; vf 10. ]; [ vi 2; vf 20. ] ]);
  let out =
    check_ok (Exl.Program.run_source "cube C1(x: int);\nC2 := 3 * C1;\n" reg)
  in
  let c2 = Registry.find_exn out "C2" in
  Alcotest.check value "3*10" (vf 30.) (Option.get (Cube.find c2 (key [ vi 1 ])));
  Alcotest.check value "3*20" (vf 60.) (Option.get (Cube.find c2 (key [ vi 2 ])))

let test_interp_vector_sum_intersection () =
  (* Vectorial ops keep only dimension tuples present in both operands. *)
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 1. ]; [ vi 2; vf 2. ] ]);
  Registry.add reg Registry.Elementary
    (cube_of "B" [ ("x", Domain.Int) ] [ [ vi 2; vf 10. ]; [ vi 3; vf 30. ] ]);
  let out =
    check_ok
      (Exl.Program.run_source "cube A(x: int);\ncube B(x: int);\nC := A + B;\n"
         reg)
  in
  let c = Registry.find_exn out "C" in
  Alcotest.(check int) "only shared tuple" 1 (Cube.cardinality c);
  Alcotest.check value "2+10" (vf 12.) (Option.get (Cube.find c (key [ vi 2 ])))

let test_interp_division_by_zero_drops () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 1. ]; [ vi 2; vf 0. ] ]);
  let out =
    check_ok (Exl.Program.run_source "cube A(x: int);\nB := 1 / A;\n" reg)
  in
  let b = Registry.find_exn out "B" in
  Alcotest.(check int) "zero divisor dropped" 1 (Cube.cardinality b);
  Alcotest.check value "1/1" (vf 1.) (Option.get (Cube.find b (key [ vi 1 ])))

let test_interp_dims_aligned_by_name () =
  (* B has dimensions in the opposite order; the join must align by name. *)
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A"
       [ ("x", Domain.Int); ("y", Domain.String) ]
       [ [ vi 1; vs "a"; vf 5. ] ]);
  Registry.add reg Registry.Elementary
    (cube_of "B"
       [ ("y", Domain.String); ("x", Domain.Int) ]
       [ [ vs "a"; vi 1; vf 7. ] ]);
  let out =
    check_ok
      (Exl.Program.run_source
         "cube A(x: int, y: string);\ncube B(y: string, x: int);\nC := A + B;\n"
         reg)
  in
  let c = Registry.find_exn out "C" in
  Alcotest.check value "5+7" (vf 12.)
    (Option.get (Cube.find c (key [ vi 1; vs "a" ])))

let test_interp_shift_lags () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A"
       [ ("q", Domain.Period (Some Calendar.Quarter)) ]
       [ [ vq 2020 1; vf 10. ]; [ vq 2020 2; vf 20. ] ]);
  let out =
    check_ok
      (Exl.Program.run_source "cube A(q: quarter);\nB := shift(A, 1);\n" reg)
  in
  let b = Registry.find_exn out "B" in
  (* B(q) = A(q-1): the 2020Q1 value appears at 2020Q2. *)
  Alcotest.check value "lagged" (vf 10.)
    (Option.get (Cube.find b (key [ vq 2020 2 ])));
  Alcotest.check value "lagged2" (vf 20.)
    (Option.get (Cube.find b (key [ vq 2020 3 ])))

let test_interp_agg_average_by_quarter () =
  let reg = Registry.create () in
  let rows =
    [
      [ vd 2020 1 10; vs "n"; vf 10. ];
      [ vd 2020 2 10; vs "n"; vf 20. ];
      [ vd 2020 4 10; vs "n"; vf 99. ];
    ]
  in
  Registry.add reg Registry.Elementary
    (cube_of "PDR" [ ("d", Domain.Date); ("r", Domain.String) ] rows);
  let out =
    check_ok
      (Exl.Program.run_source
         "cube PDR(d: date, r: string);\nPQR := avg(PDR, group by quarter(d) as q, r);\n"
         reg)
  in
  let pqr = Registry.find_exn out "PQR" in
  Alcotest.(check int) "two quarters" 2 (Cube.cardinality pqr);
  Alcotest.check value "q1 avg" (vf 15.)
    (Option.get (Cube.find pqr (key [ vq 2020 1; vs "n" ])))

let test_interp_total_aggregate () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 2. ]; [ vi 2; vf 3. ] ]);
  let out =
    check_ok (Exl.Program.run_source "cube A(x: int);\nB := sum(A);\n" reg)
  in
  let b = Registry.find_exn out "B" in
  Alcotest.check value "total" (vf 5.) (Option.get (Cube.find b (key [])))

let test_interp_overview_end_to_end () =
  let reg = overview_registry () in
  let out = check_ok (Exl.Interp.run (load_overview ()) reg) in
  let gdp = Registry.find_exn out "GDP" in
  Alcotest.(check int) "8 quarters" 8 (Cube.cardinality gdp);
  (* GDP = sum over regions of RGDPPC * avg population: check one value
     by hand. 2020Q1: population north = avg over Q1 days, etc. *)
  let pqr = Registry.find_exn out "PQR" in
  let p_north = Option.get (Cube.find pqr (key [ vq 2020 1; vs "north" ])) in
  let rgdp = Registry.find_exn out "RGDP" in
  let g_north = Option.get (Cube.find rgdp (key [ vq 2020 1; vs "north" ])) in
  let rgdppc_val = 30. +. 0. +. (5. *. sin 0.) in
  Alcotest.check value "rgdp = pqr * rgdppc"
    (vf (Value.to_float_exn p_north *. rgdppc_val))
    g_north;
  let pchng = Registry.find_exn out "PCHNG" in
  (* PCHNG is undefined on the first quarter (no predecessor). *)
  Alcotest.(check bool) "first quarter missing" false
    (Cube.find pchng (key [ vq 2020 1 ]) <> None);
  Alcotest.(check int) "7 changes" 7 (Cube.cardinality pchng)

let test_interp_blackbox_per_slice () =
  (* stl per region: extension for cubes with extra dimensions. *)
  let reg = Registry.create () in
  let rows = ref [] in
  List.iter
    (fun r ->
      for y = 2019 to 2021 do
        for q = 1 to 4 do
          let t = float_of_int (((y - 2019) * 4) + q) in
          rows :=
            [ vq y q; vs r; vf (t +. (3. *. Float.rem t 4.)) ] :: !rows
        done
      done)
    [ "a"; "b" ];
  Registry.add reg Registry.Elementary
    (cube_of "S"
       [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
       !rows);
  let out =
    check_ok
      (Exl.Program.run_source "cube S(q: quarter, r: string);\nT := stl_t(S);\n"
         reg)
  in
  let t = Registry.find_exn out "T" in
  Alcotest.(check int) "same tuples" 24 (Cube.cardinality t)

let test_interp_missing_elementary_is_empty () =
  let reg = Registry.create () in
  let out =
    check_ok (Exl.Program.run_source "cube A(x: int);\nB := A * 2;\n" reg)
  in
  Alcotest.(check int) "empty" 0 (Cube.cardinality (Registry.find_exn out "B"))

(* --- robustness and edge frequencies --- *)

let prop_parser_never_crashes =
  QCheck.Test.make ~count:300 ~name:"parser is total (Ok or Error, no exception)"
    QCheck.(string_gen_of_size Gen.(0 -- 60) (Gen.char_range ' ' '~'))
    (fun junk ->
      match Exl.Parser.parse junk with Ok _ | Error _ -> true)

let prop_lexer_never_crashes =
  QCheck.Test.make ~count:300 ~name:"lexer is total"
    QCheck.string
    (fun junk ->
      match Exl.Lexer.tokenize junk with Ok _ | Error _ -> true)

let test_weekly_frequency_end_to_end () =
  (* weekly series: stl period inference = 52, needs two years *)
  let reg = Registry.create () in
  let schema =
    Schema.make ~name:"W" ~dims:[ ("w", Domain.Period (Some Calendar.Week)) ] ()
  in
  let cube = Cube.create schema in
  for i = 0 to 119 do
    let p = Calendar.Period.shift (Calendar.Period.week 2022 1) i in
    Cube.set cube
      (Tuple.of_list [ Value.Period p ])
      (Value.Float
         (50. +. (0.2 *. float_of_int i)
         +. (4. *. sin (2. *. Float.pi *. float_of_int i /. 52.))))
  done;
  Registry.add reg Registry.Elementary cube;
  let checked =
    Exl.Program.load_exn
      "cube W(w: week);\nT := stl_t(W);\nG := 100 * (W - shift(W, 52)) / shift(W, 52);\n"
  in
  match Core.verify_all_backends checked reg with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_semester_group_by () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "M"
       [ ("m", Domain.Period (Some Calendar.Month)) ]
       (List.init 12 (fun i -> [ vm 2024 (i + 1); vf (float_of_int (i + 1)) ])));
  let out =
    check_ok
      (Exl.Program.run_source
         "cube M(m: month);\nS := sum(M, group by semester(m) as s);\n" reg)
  in
  let s_cube = Registry.find_exn out "S" in
  Alcotest.(check int) "two semesters" 2 (Cube.cardinality s_cube);
  (* 1+..+6 = 21, 7+..+12 = 57 *)
  Alcotest.check value "s1" (vf 21.)
    (Option.get
       (Cube.find s_cube
          (key [ Value.Period (Calendar.Period.semester 2024 1) ])))

let test_warnings_unused_elementary () =
  let checked =
    Exl.Program.load_exn "cube A(x: int);\ncube UNUSED(y: int);\nB := A + 1;\n"
  in
  match Exl.Typecheck.warnings checked with
  | [ w ] ->
      Alcotest.(check bool) "names the cube" true
        (Astring_contains.contains w "UNUSED")
  | ws -> Alcotest.failf "expected one warning, got %d" (List.length ws)

let test_load_all_accumulates_errors () =
  (* every independent error in one run, ordered by source position;
     statements depending on a failed one are suppressed, not re-reported *)
  match
    Exl.Program.load_all
      "cube A(x: int, x: int);\ncube B(y: int);\nC := B + NOPE;\nD := C * 2;\nE := frobnicate(B);\n"
  with
  | Ok _ -> Alcotest.fail "expected errors"
  | Error errs ->
      Alcotest.(check int) "three independent errors" 3 (List.length errs);
      let lines =
        List.map
          (fun (e : Exl.Errors.t) ->
            match e.Exl.Errors.pos with Some p -> p.Exl.Ast.line | None -> -1)
          errs
      in
      Alcotest.(check (list int)) "in position order" [ 1; 3; 5 ] lines;
      Alcotest.(check (list (option string))) "stable codes"
        [ Some "E003"; Some "E007"; Some "E005" ]
        (List.map (fun (e : Exl.Errors.t) -> e.Exl.Errors.code) errs)

let suite =
  [
    ("lexer: basic", `Quick, test_lexer_basic);
    ("lexer: keywords case-insensitive", `Quick, test_lexer_keywords_case_insensitive);
    ("lexer: rejects garbage", `Quick, test_lexer_rejects_garbage);
    ("lexer: positions", `Quick, test_lexer_positions);
    ("parser: precedence", `Quick, test_parse_precedence);
    ("parser: power right-assoc", `Quick, test_parse_power_right_assoc);
    ("parser: unary minus", `Quick, test_parse_unary_minus);
    ("parser: group by", `Quick, test_parse_group_by);
    ("parser: declaration", `Quick, test_parse_decl);
    ("parser: error cases", `Quick, test_parse_errors);
    ("parser: group by must be last", `Quick, test_group_by_must_be_last);
    ("pretty: overview round-trips", `Quick, test_roundtrip_overview);
    ("pretty: floats shortest round-trip", `Quick, test_pretty_float_shortest_roundtrip);
    ("pretty: string escapes lexable", `Quick, test_pretty_string_escapes_lexable);
    ("ast: negative literal spellings equal", `Quick, test_negative_literal_spellings_equal);
    ("check: overview schemas", `Quick, test_check_overview);
    ("check: rejects redefinition", `Quick, test_check_rejects_redefinition);
    ("check: rejects unknown cube", `Quick, test_check_rejects_unknown_cube);
    ("check: rejects dim mismatch", `Quick, test_check_rejects_dim_mismatch);
    ("check: rejects unknown operator", `Quick, test_check_rejects_unknown_operator);
    ("check: rejects recursion", `Quick, test_check_rejects_recursion);
    ("check: rejects bad group by dim", `Quick, test_check_rejects_groupby_on_missing_dim);
    ("check: rejects quarter(int)", `Quick, test_check_rejects_quarter_on_int);
    ("check: rejects stl without time", `Quick, test_check_rejects_blackbox_without_time);
    ("check: shift needs temporal", `Quick, test_check_shift_needs_temporal);
    ("check: scalar param count", `Quick, test_check_scalar_param_count);
    ("check: total aggregate type", `Quick, test_check_total_aggregate_is_zero_dim);
    ("check: measure numeric", `Quick, test_check_measure_must_be_numeric);
    ("normalize: overview", `Quick, test_normalize_overview);
    ("normalize: preserves semantics", `Quick, test_normalize_preserves_semantics);
    ("normalize: constant folding", `Quick, test_normalize_constant_folding);
    ("normalize: 1/0 not folded", `Quick, test_normalize_folding_keeps_undefined);
    ("normalize: temp names", `Quick, test_normalize_temp_names);
    ("interp: scalar multiplication", `Quick, test_interp_scalar_mult);
    ("interp: vector sum intersection", `Quick, test_interp_vector_sum_intersection);
    ("interp: division by zero drops", `Quick, test_interp_division_by_zero_drops);
    ("interp: dims aligned by name", `Quick, test_interp_dims_aligned_by_name);
    ("interp: shift lags", `Quick, test_interp_shift_lags);
    ("interp: avg by quarter", `Quick, test_interp_agg_average_by_quarter);
    ("interp: total aggregate", `Quick, test_interp_total_aggregate);
    ("interp: overview end-to-end", `Quick, test_interp_overview_end_to_end);
    ("interp: blackbox per slice", `Quick, test_interp_blackbox_per_slice);
    ("interp: missing elementary empty", `Quick, test_interp_missing_elementary_is_empty);
    QCheck_alcotest.to_alcotest prop_parser_never_crashes;
    QCheck_alcotest.to_alcotest prop_lexer_never_crashes;
    ("weekly frequency end-to-end", `Quick, test_weekly_frequency_end_to_end);
    ("semester group by", `Quick, test_semester_group_by);
    ("warnings: unused elementary", `Quick, test_warnings_unused_elementary);
    ("check: load_all accumulates errors", `Quick, test_load_all_accumulates_errors);
  ]
