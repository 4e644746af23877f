(* The static-analysis subsystem: accumulating diagnostics, EXL lints,
   and the mapping-level checks (safety, weak acyclicity with its
   certificate, egd consistency, stratification). *)
open Matrix
module A = Analysis
module M = Mappings

let lint source = (A.Lint.source_diagnostics source).A.Lint.diagnostics
let codes source = List.map (fun d -> d.A.Diagnostic.code) (lint source)

let check_codes name expected source =
  Alcotest.(check (list string)) name expected (codes source)

let check_has_code name code source =
  Alcotest.(check bool)
    (Printf.sprintf "%s (wants %s in [%s])" name code
       (String.concat "; " (codes source)))
    true
    (List.mem code (codes source))

(* --- the diagnostics core --- *)

let test_catalogue () =
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (code ^ " described") true
        (A.Diagnostic.description code <> None))
    A.Diagnostic.known_codes;
  (* codes are unique *)
  Alcotest.(check int) "no duplicate codes"
    (List.length A.Diagnostic.known_codes)
    (List.length (List.sort_uniq compare A.Diagnostic.known_codes));
  (* severity follows the prefix *)
  Alcotest.(check bool) "W is warning" true
    (A.Diagnostic.is_warning (A.Diagnostic.make ~code:"W101" "x"));
  Alcotest.(check bool) "E is error" true
    (A.Diagnostic.is_error (A.Diagnostic.make ~code:"E007" "x"))

let test_render () =
  let d =
    A.Diagnostic.make ~code:"E007"
      ~pos:{ Exl.Ast.line = 2; col = 6 }
      "reference to undefined cube X"
  in
  Alcotest.(check string) "text"
    "error[E007]: line 2, column 6: reference to undefined cube X"
    (A.Diagnostic.to_string d);
  let caret = A.Diagnostic.to_string_with_source ~source:"cube A(x: int);\nB := X;\n" d in
  Alcotest.(check bool) "caret under column" true
    (String.length caret > 0
    && String.sub caret (String.length caret - 1) 1 = "^");
  let json = A.Diagnostic.list_to_json [ d ] in
  Alcotest.(check bool) "json has code" true
    (Astring_contains.contains json {|"code":"E007"|});
  Alcotest.(check bool) "json has summary" true
    (Astring_contains.contains json {|"summary":{"errors":1,"warnings":0,"infos":0}|})

(* --- per-code source fixtures: one negative (fires) and the positive
   variant (clean) --- *)

let clean = "cube A(q: quarter);\nB := A + 1;\n"

let test_code_fixtures () =
  check_codes "clean program" [] clean;
  check_codes "E001 syntax" [ "E001" ] "cube A(;\n";
  check_codes "E002 generic type error" [ "E002" ]
    "cube A(q: quarter);\nB := shift(A);\n";
  check_codes "E003 duplicate dim" [ "E003" ] "cube A(x: int, x: int);\n";
  check_codes "E004 bad group-by key" [ "E004" ]
    "cube A(q: quarter);\nB := sum(A, group by nodim);\n";
  check_codes "E005 unknown operator" [ "E005" ]
    "cube A(q: quarter);\nB := frobnicate(A);\n";
  check_codes "E006 arity mismatch" [ "E006" ]
    "cube A(q: quarter);\nB := abs(1, 2);\n";
  check_codes "E007 undefined cube" [ "E007" ] "B := MISSING + 1;\n";
  check_codes "E008 dim mismatch" [ "E008" ]
    "cube A(x: int);\ncube B(y: int);\nC := A + B;\n";
  check_codes "E009 duplicate cube" [ "E009" ]
    "cube A(x: int);\ncube A(x: int);\n";
  check_codes "W101 unused elementary" [ "W101" ]
    "cube A(q: quarter);\ncube UNUSED(x: int);\nB := A + 1;\n";
  check_codes "W102 unreached derived" [ "W102" ]
    "cube A(q: quarter);\nB__1 := A + 1;\n";
  check_codes "W103 no-op aggregation" [ "W103" ]
    "cube A(q: quarter, r: string);\nB := sum(A, group by q, r);\n";
  check_codes "W104 period not inferable" [ "W104" ]
    "cube A(y: year);\nB := deseason(A);\n";
  (* shift by zero normalizes to a pure copy, so W106 fires alongside *)
  check_codes "W105 shift by zero" [ "W105"; "W106" ]
    "cube A(q: quarter);\nB := shift(A, 0);\n";
  check_codes "W106 plain copy" [ "W106" ] "cube A(q: quarter);\nB := A;\n";
  check_codes "W106 clean when computing" []
    "cube A(q: quarter);\nB := A * 2;\n";
  check_codes "W105 shift out of range" [ "W105" ]
    "cube A(q: quarter);\nB := shift(A, 1000000);\n";
  (* positive variants of the warning lints *)
  check_codes "W103 clean when collapsing" []
    "cube A(q: quarter, r: string);\nB := sum(A, group by q);\n";
  check_codes "W104 clean with explicit period" []
    "cube A(y: year);\nB := deseason(A, 3);\n";
  check_codes "W105 clean shift" [] "cube A(q: quarter);\nB := shift(A, 4);\n"

let test_every_fixture_code_registered () =
  (* every diagnostic any fixture produces must be catalogued *)
  let sources =
    [
      "cube A(;\n";
      "cube A(q: quarter);\nB := shift(A);\n";
      "cube A(x: int, x: int);\nB := sum(A, group by nodim);\n";
      "cube UNUSED(x: int);\nB__1 := shift(UNUSED, 0);\n";
    ]
  in
  List.iter
    (List.iter (fun c ->
         Alcotest.(check bool) (c ^ " registered") true
           (A.Diagnostic.description c <> None)))
    (List.map codes sources)

let test_accumulation_and_order () =
  let ds =
    lint
      "cube A(x: int, x: int);\ncube B(y: int);\nC := B + NOPE;\nD := frobnicate(B);\n"
  in
  Alcotest.(check (list string)) "all errors, in position order"
    [ "E003"; "E007"; "E005" ]
    (List.map (fun d -> d.A.Diagnostic.code) ds)

let test_cascade_suppression () =
  (* the failed declaration poisons its dependents: one error, not three *)
  check_codes "poisoned downstream statements stay silent" [ "E003" ]
    "cube A(x: int, x: int);\nB := A + 1;\nC := B * 2;\n"

let test_filter_and_exit_code () =
  let report =
    A.Lint.source_diagnostics
      "cube A(q: quarter);\ncube UNUSED(x: int);\nB := shift(A, 0);\n"
  in
  (* W101 + W105, plus W106: the zero shift is also a provable copy *)
  Alcotest.(check int) "three warnings" 3 (List.length report.A.Lint.diagnostics);
  Alcotest.(check int) "warnings exit 0" 0
    (A.Lint.exit_code ~deny_warnings:false report);
  Alcotest.(check int) "deny-warnings exit 1" 1
    (A.Lint.exit_code ~deny_warnings:true report);
  let suppressed = A.Lint.filter ~suppress:[ "W101"; "W105"; "W106" ] report in
  Alcotest.(check int) "all suppressed" 0
    (List.length suppressed.A.Lint.diagnostics);
  Alcotest.(check int) "suppressed + deny exits 0" 0
    (A.Lint.exit_code ~deny_warnings:true suppressed);
  (* errors survive suppression *)
  let bad = A.Lint.source_diagnostics "B := NOPE;\n" in
  let still = A.Lint.filter ~suppress:[ "E007" ] bad in
  Alcotest.(check int) "errors not suppressible" 1
    (List.length still.A.Lint.diagnostics)

(* --- mapping-level checks on hand-built mappings --- *)

let quarter = Domain.Period (Some Calendar.Quarter)
let tv v = M.Term.Var v

let schema name dims = Schema.make ~name ~dims ()

let mapping ?(st_tgds = []) ?(egds = []) ~source ~target t_tgds =
  { M.Mapping.source; target; st_tgds; t_tgds; egds }

let test_safety () =
  let safe =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "A" [ tv "t"; tv "m" ] ];
        rhs = M.Tgd.atom "B" [ tv "t"; tv "m" ];
      }
  in
  let unsafe =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "A" [ tv "t"; tv "m" ] ];
        rhs = M.Tgd.atom "B" [ tv "t"; tv "z" ];
      }
  in
  let a = schema "A" [ ("t", quarter) ] and b = schema "B" [ ("t", quarter) ] in
  let ok = mapping ~source:[ a ] ~target:[ a; b ] [ safe ] in
  let bad = mapping ~source:[ a ] ~target:[ a; b ] [ unsafe ] in
  Alcotest.(check int) "safe tgd passes" 0 (List.length (A.Map_lints.safety ok));
  let ds = A.Map_lints.safety bad in
  Alcotest.(check (list string)) "E201 fired" [ "E201" ]
    (List.map (fun d -> d.A.Diagnostic.code) ds);
  Alcotest.(check bool) "names the variable" true
    (Astring_contains.contains (List.hd ds).A.Diagnostic.message "z");
  (* agreement with the engine's own predicate *)
  Alcotest.(check bool) "is_safe agrees" false (M.Tgd.is_safe unsafe)

let self_feeding_mapping () =
  (* C(t, m) → C(t+1, m): the shifted head can mint new periods
     forever — the canonical weak-acyclicity violation. *)
  let c = schema "C" [ ("t", quarter) ] in
  let tgd =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "C" [ tv "t"; tv "m" ] ];
        rhs = M.Tgd.atom "C" [ M.Term.Shifted (tv "t", 1); tv "m" ];
      }
  in
  mapping ~source:[] ~target:[ c ] [ tgd ]

let test_weak_acyclicity_rejects_cycle () =
  let m = self_feeding_mapping () in
  (match A.Acyclicity.check m with
  | Ok _ -> Alcotest.fail "expected a weak-acyclicity violation"
  | Error { A.Acyclicity.cycle } ->
      Alcotest.(check bool) "cycle is non-empty" true (cycle <> []);
      Alcotest.(check bool) "cycle crosses a special edge" true
        (List.exists (fun e -> e.A.Acyclicity.kind = A.Acyclicity.Special) cycle));
  match A.Acyclicity.diagnose m with
  | [ d ] ->
      Alcotest.(check string) "E202" "E202" d.A.Diagnostic.code;
      Alcotest.(check bool) "renders the cycle" true
        (Astring_contains.contains d.A.Diagnostic.message "C.t")
  | ds -> Alcotest.failf "expected one E202, got %d diagnostics" (List.length ds)

let test_ordinary_cycle_is_fine () =
  (* mutual plain copies: a cycle, but through ordinary edges only *)
  let b = schema "B" [ ("t", quarter) ] and c = schema "C" [ ("t", quarter) ] in
  let copy src dst =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom src [ tv "t"; tv "m" ] ];
        rhs = M.Tgd.atom dst [ tv "t"; tv "m" ];
      }
  in
  let m = mapping ~source:[] ~target:[ b; c ] [ copy "B" "C"; copy "C" "B" ] in
  match A.Acyclicity.check m with
  | Ok cert ->
      Alcotest.(check (result unit string)) "certificate verifies" (Ok ())
        (A.Acyclicity.verify cert)
  | Error _ -> Alcotest.fail "ordinary cycles must be accepted"

let test_certificate_verification_catches_tampering () =
  let a = schema "A" [ ("t", quarter) ] and b = schema "B" [ ("t", quarter) ] in
  let tgd =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "A" [ tv "t"; tv "m" ] ];
        rhs = M.Tgd.atom "B" [ M.Term.Shifted (tv "t", 4); tv "m" ];
      }
  in
  let m = mapping ~source:[ a ] ~target:[ a; b ] [ tgd ] in
  match A.Acyclicity.check m with
  | Error _ -> Alcotest.fail "shift into a fresh relation is acyclic"
  | Ok cert ->
      Alcotest.(check (result unit string)) "genuine certificate" (Ok ())
        (A.Acyclicity.verify cert);
      Alcotest.(check bool) "shift raises the rank" true (cert.A.Acyclicity.max_rank >= 1);
      let tampered =
        {
          cert with
          A.Acyclicity.ranks =
            List.map (fun (p, _) -> (p, 0)) cert.A.Acyclicity.ranks;
        }
      in
      Alcotest.(check bool) "zeroed ranks rejected" true
        (A.Acyclicity.verify tampered <> Ok ())

let test_egd_consistency () =
  let a = schema "A" [ ("x", Domain.Int); ("y", Domain.Int) ] in
  let b = schema "B" [ ("x", Domain.Int) ] in
  let project =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "A" [ tv "x"; tv "y"; tv "m" ] ];
        rhs = M.Tgd.atom "B" [ tv "x"; tv "m" ];
      }
  in
  let m =
    mapping ~source:[ a ] ~target:[ a; b ]
      ~egds:[ M.Egd.of_schema b ]
      [ project ]
  in
  (match A.Map_lints.egd_consistency m with
  | [ d ] -> Alcotest.(check string) "E203" "E203" d.A.Diagnostic.code
  | ds -> Alcotest.failf "expected one E203, got %d" (List.length ds));
  (* a shifted head dimension is injective, so the measure stays
     determined and the egd holds *)
  let c = schema "C" [ ("t", quarter) ] and d = schema "D" [ ("t", quarter) ] in
  let shift_copy =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "C" [ tv "t"; tv "m" ] ];
        rhs = M.Tgd.atom "D" [ M.Term.Shifted (tv "t", 1); tv "m" ];
      }
  in
  let ok =
    mapping ~source:[ c ] ~target:[ c; d ]
      ~egds:[ M.Egd.of_schema d ]
      [ shift_copy ]
  in
  Alcotest.(check int) "shifted copy is consistent" 0
    (List.length (A.Map_lints.egd_consistency ok))

let test_stratification_failure () =
  let b = schema "B" [ ("q", Domain.Int) ] and c = schema "C" [ ("q", Domain.Int) ] in
  let copy src dst =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom src [ tv "q"; tv "m" ] ];
        rhs = M.Tgd.atom dst [ tv "q"; tv "m" ];
      }
  in
  let m =
    mapping
      ~source:[ schema "A" [ ("q", Domain.Int) ] ]
      ~target:[ b; c ]
      [ copy "C" "B"; copy "B" "C" ]
  in
  match A.Map_lints.stratification m with
  | d :: _ -> Alcotest.(check string) "E204" "E204" d.A.Diagnostic.code
  | [] -> Alcotest.fail "expected a stratification failure"

let test_unproduced_target () =
  let a = schema "A" [ ("x", Domain.Int) ] in
  let orphan = schema "ORPHAN" [ ("x", Domain.Int) ] in
  let m = mapping ~source:[ a ] ~target:[ a; orphan ] [] in
  match A.Map_lints.unproduced_targets m with
  | [ d ] ->
      Alcotest.(check string) "W205" "W205" d.A.Diagnostic.code;
      Alcotest.(check bool) "names the relation" true
        (Astring_contains.contains d.A.Diagnostic.message "ORPHAN")
  | ds -> Alcotest.failf "expected one W205, got %d" (List.length ds)

(* --- every example program's mapping is certified --- *)

let example_files =
  [
    "../examples/quickstart.exl";
    "../examples/monetary_aggregates.exl";
    "../examples/seasonal_tourism.exl";
    "../examples/sdmx_dissemination.exl";
    "../examples/multi_target_dispatch.exl";
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Safe tgds and a verified weak-acyclicity certificate, for the
   generated mapping and for its [Optimize.run] output — the mapping the
   engine actually chases. *)
let certify source =
  let certify_mapping what m =
    match A.Map_lints.safety m with
    | d :: _ -> Error (what ^ ": " ^ A.Diagnostic.to_string d)
    | [] -> (
        match A.Acyclicity.check m with
        | Error { A.Acyclicity.cycle } ->
            Error
              (what ^ ": not weakly acyclic: "
              ^ A.Acyclicity.cycle_to_string m cycle)
        | Ok cert ->
            Result.map_error (fun e -> what ^ ": " ^ e) (A.Acyclicity.verify cert))
  in
  match (A.Lint.source_diagnostics source).A.Lint.mapping with
  | None -> Error "no mapping generated"
  | Some m ->
      Result.bind (certify_mapping "generated" m) (fun () ->
          certify_mapping "optimized" (A.Optimize.run m).A.Optimize.optimized)

let test_examples_certified () =
  List.iter
    (fun (what, source) ->
      Alcotest.(check (result unit string))
        (what ^ " certified") (Ok ()) (certify source))
    (List.map (fun path -> (path, read_file path)) example_files
    @ [
        ("Helpers.overview_program", Helpers.overview_program);
        ("Test_incr.join_source", Test_incr.join_source);
      ])

let test_random_programs_certified =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"random programs are weakly acyclic + safe"
       Gen.arb_seed (fun seed ->
         let src, _ = Gen.program_of_seed seed in
         certify src = Ok ()))

let suite =
  [
      ("diagnostic catalogue", `Quick, test_catalogue);
      ("diagnostic rendering", `Quick, test_render);
      ("per-code fixtures", `Quick, test_code_fixtures);
      ("fixture codes registered", `Quick, test_every_fixture_code_registered);
      ("accumulation in position order", `Quick, test_accumulation_and_order);
      ("cascade suppression", `Quick, test_cascade_suppression);
      ("filter and exit codes", `Quick, test_filter_and_exit_code);
      ("tgd safety", `Quick, test_safety);
      ("weak acyclicity: cyclic shift rejected", `Quick, test_weak_acyclicity_rejects_cycle);
      ("weak acyclicity: ordinary cycle accepted", `Quick, test_ordinary_cycle_is_fine);
      ("certificate verification", `Quick, test_certificate_verification_catches_tampering);
      ("egd consistency", `Quick, test_egd_consistency);
      ("stratification failure", `Quick, test_stratification_failure);
      ("unproduced target", `Quick, test_unproduced_target);
      ("example mappings certified", `Quick, test_examples_certified);
      test_random_programs_certified;
    ]
