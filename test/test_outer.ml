(* The default-value variant of vectorial operators (paper, Section 3:
   "there are others assuming a default value for the missing tuples
   (example, in the sum operator, we could have zero as the default
   value)"): vadd/vsub/vmul/vdiv across every layer. *)
open Matrix
open Helpers

let dims = [ ("q", Domain.Period (Some Calendar.Quarter)) ]

let data () =
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" dims [ [ vq 2024 1; vf 10. ]; [ vq 2024 2; vf 20. ] ]);
  Registry.add reg Registry.Elementary
    (cube_of "B" dims [ [ vq 2024 2; vf 5. ]; [ vq 2024 3; vf 7. ] ]);
  reg

let run_src src =
  core_ok (Core.run (Core.compile_exn src) (data ()))

let test_vadd_union_semantics () =
  let out = run_src "cube A(q: quarter);\ncube B(q: quarter);\nC := vadd(A, B);\n" in
  let c = Registry.find_exn out "C" in
  Alcotest.(check int) "union of keys" 3 (Cube.cardinality c);
  Alcotest.check value "left only" (vf 10.) (Option.get (Cube.find c (key [ vq 2024 1 ])));
  Alcotest.check value "both" (vf 25.) (Option.get (Cube.find c (key [ vq 2024 2 ])));
  Alcotest.check value "right only" (vf 7.) (Option.get (Cube.find c (key [ vq 2024 3 ])))

let test_vadd_vs_plus () =
  (* plain + is intersection semantics: only 2024Q2 survives *)
  let out =
    run_src
      "cube A(q: quarter);\ncube B(q: quarter);\nINNER := A + B;\nOUTER := vadd(A, B);\n"
  in
  Alcotest.(check int) "inner" 1 (Cube.cardinality (Registry.find_exn out "INNER"));
  Alcotest.(check int) "outer" 3 (Cube.cardinality (Registry.find_exn out "OUTER"))

let test_vmul_default_is_one () =
  let out = run_src "cube A(q: quarter);\ncube B(q: quarter);\nC := vmul(A, B);\n" in
  let c = Registry.find_exn out "C" in
  Alcotest.check value "left only x1" (vf 10.)
    (Option.get (Cube.find c (key [ vq 2024 1 ])))

let test_explicit_default () =
  let out =
    run_src "cube A(q: quarter);\ncube B(q: quarter);\nC := vadd(A, B, 100);\n"
  in
  let c = Registry.find_exn out "C" in
  Alcotest.check value "left only + 100" (vf 110.)
    (Option.get (Cube.find c (key [ vq 2024 1 ])))

let test_vsub_direction () =
  let out = run_src "cube A(q: quarter);\ncube B(q: quarter);\nC := vsub(A, B);\n" in
  let c = Registry.find_exn out "C" in
  Alcotest.check value "both sides" (vf 15.)
    (Option.get (Cube.find c (key [ vq 2024 2 ])));
  Alcotest.check value "right only: 0 - 7" (vf (-7.))
    (Option.get (Cube.find c (key [ vq 2024 3 ])))

let test_check_rejects_scalar_operand () =
  ignore
    (check_err "scalar operand"
       (Exl.Program.load "cube A(q: quarter);\nC := vadd(A, 3);\n"))

let test_check_rejects_dim_mismatch () =
  ignore
    (check_err "dim mismatch"
       (Exl.Program.load
          "cube A(q: quarter);\ncube B(r: string);\nC := vadd(A, B);\n"))

let test_tgd_shape_and_printing () =
  let g =
    check_ok
      (Mappings.Generate.of_source
         "cube A(q: quarter);\ncube B(q: quarter);\nC := vadd(A, B);\n")
  in
  match Mappings.Mapping.tgd_for g.Mappings.Generate.mapping "C" with
  | Some (Mappings.Tgd.Outer_combine { op; default; _ } as tgd) ->
      Alcotest.(check string) "op" "+" (Ops.Binop.to_string op);
      Alcotest.(check Helpers.floats) "default" 0. default;
      Alcotest.(check bool) "safe" true (Mappings.Tgd.is_safe tgd);
      Alcotest.(check bool) "prints coalesce" true
        (Astring_contains.contains (Mappings.Tgd.to_string tgd) "coalesce")
  | _ -> Alcotest.fail "expected Outer_combine"

let test_sql_full_outer_join () =
  let checked =
    Core.compile_exn "cube A(q: quarter);\ncube B(q: quarter);\nC := vadd(A, B);\n"
  in
  let sql = core_ok (Core.sql_of checked) in
  Alcotest.(check bool) "full outer join" true
    (Astring_contains.contains sql "FULL OUTER JOIN");
  Alcotest.(check bool) "coalesce" true
    (Astring_contains.contains sql "COALESCE(C1.VALUE, 0)")

let test_r_outer_merge () =
  let checked =
    Core.compile_exn "cube A(q: quarter);\ncube B(q: quarter);\nC := vadd(A, B);\n"
  in
  let r = core_ok (Core.r_of checked) in
  Alcotest.(check bool) "all=TRUE" true
    (Astring_contains.contains r "merge(A, B, by=c(\"q\"), all=TRUE)")

let test_kettle_full_outer () =
  let checked =
    Core.compile_exn "cube A(q: quarter);\ncube B(q: quarter);\nC := vadd(A, B);\n"
  in
  let xml = core_ok (Core.kettle_of checked) in
  Alcotest.(check bool) "join type" true
    (Astring_contains.contains xml "<join_type>FULL OUTER</join_type>")

let test_all_backends_agree () =
  let checked =
    Core.compile_exn
      "cube A(q: quarter);\ncube B(q: quarter);\nC := vadd(A, B);\nD := vmul(A, B);\nE := vdiv(A, B, 2);\n"
  in
  match Core.verify_all_backends checked (data ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_outer_multi_dim_all_backends () =
  let reg = Registry.create () in
  let dims2 =
    [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
  in
  Registry.add reg Registry.Elementary
    (cube_of "A" dims2
       [ [ vq 2024 1; vs "x"; vf 1. ]; [ vq 2024 1; vs "y"; vf 2. ] ]);
  Registry.add reg Registry.Elementary
    (cube_of "B" dims2
       [ [ vq 2024 1; vs "y"; vf 10. ]; [ vq 2024 2; vs "z"; vf 20. ] ]);
  let checked =
    Core.compile_exn
      "cube A(q: quarter, r: string);\ncube B(q: quarter, r: string);\nC := vadd(A, B);\n"
  in
  (match Core.verify_all_backends checked reg with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let out = core_ok (Core.run checked reg) in
  Alcotest.(check int) "three keys" 3
    (Cube.cardinality (Registry.find_exn out "C"))

let test_outer_composes_downstream () =
  let checked =
    Core.compile_exn
      "cube A(q: quarter);\ncube B(q: quarter);\nC := vadd(A, B);\nTOTAL := sum(C, group by q);\nSCALED := 2 * C;\n"
  in
  match Core.verify_all_backends checked (data ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let suite =
  [
    ("interp: union semantics", `Quick, test_vadd_union_semantics);
    ("interp: vadd vs plain +", `Quick, test_vadd_vs_plus);
    ("interp: vmul default 1", `Quick, test_vmul_default_is_one);
    ("interp: explicit default", `Quick, test_explicit_default);
    ("interp: vsub direction", `Quick, test_vsub_direction);
    ("check: rejects scalar operand", `Quick, test_check_rejects_scalar_operand);
    ("check: rejects dim mismatch", `Quick, test_check_rejects_dim_mismatch);
    ("mapping: outer tgd shape", `Quick, test_tgd_shape_and_printing);
    ("sql: full outer join + coalesce", `Quick, test_sql_full_outer_join);
    ("vector: R outer merge", `Quick, test_r_outer_merge);
    ("etl: kettle full outer", `Quick, test_kettle_full_outer);
    ("all backends agree", `Quick, test_all_backends_agree);
    ("multi-dim outer on all backends", `Quick, test_outer_multi_dim_all_backends);
    ("outer composes downstream", `Quick, test_outer_composes_downstream);
  ]
