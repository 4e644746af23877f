(* The shared operator catalogues: binops, scalar functions, dimension
   functions, black boxes. *)
open Matrix
open Helpers

(* --- binops --- *)

let test_binop_eval () =
  Alcotest.(check (option Helpers.floats)) "add" (Some 5.)
    (Ops.Binop.eval Ops.Binop.Add 2. 3.);
  Alcotest.(check (option Helpers.floats)) "div by zero" None
    (Ops.Binop.eval Ops.Binop.Div 1. 0.);
  Alcotest.(check (option Helpers.floats)) "pow" (Some 8.)
    (Ops.Binop.eval Ops.Binop.Pow 2. 3.);
  (* 0 ^ -1 = inf: kept as a value; NaN results are dropped *)
  Alcotest.(check (option Helpers.floats)) "nan dropped" None
    (Ops.Binop.eval Ops.Binop.Pow (-1.) 0.5)

let test_binop_eval_value_nulls () =
  Alcotest.check value "null propagates" Value.Null
    (Ops.Binop.eval_value Ops.Binop.Add Value.Null (vf 1.));
  Alcotest.check value "string is null" Value.Null
    (Ops.Binop.eval_value Ops.Binop.Add (vs "x") (vf 1.));
  Alcotest.check value "int widens" (vf 3.)
    (Ops.Binop.eval_value Ops.Binop.Add (vi 1) (vf 2.))

(* --- scalar functions --- *)

let test_scalar_log_base () =
  let log_fn = Ops.Scalar_fn.find_exn "log" in
  Alcotest.(check (option Helpers.floats)) "log2 8" (Some 3.)
    (Ops.Scalar_fn.apply log_fn ~params:[ 2. ] 8.);
  Alcotest.(check (option Helpers.floats)) "ln e" (Some 1.)
    (Ops.Scalar_fn.apply log_fn ~params:[] (exp 1.));
  Alcotest.(check (option Helpers.floats)) "log of negative" None
    (Ops.Scalar_fn.apply log_fn ~params:[] (-1.))

let test_scalar_param_count_enforced () =
  let sqrt_fn = Ops.Scalar_fn.find_exn "sqrt" in
  Alcotest.(check (option Helpers.floats)) "extra params rejected" None
    (Ops.Scalar_fn.apply sqrt_fn ~params:[ 2. ] 4.)

let test_scalar_registration () =
  Ops.Scalar_fn.register ~name:"test_triple" (fun _ x -> 3. *. x);
  Alcotest.(check (option Helpers.floats)) "registered" (Some 6.)
    (Ops.Scalar_fn.apply (Ops.Scalar_fn.find_exn "test_triple") ~params:[] 2.);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Scalar_fn.register: duplicate function test_triple")
    (fun () -> Ops.Scalar_fn.register ~name:"test_triple" (fun _ x -> x));
  (* registered functions are usable from EXL end to end *)
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A" [ ("x", Domain.Int) ] [ [ vi 1; vf 2. ] ]);
  let out =
    check_ok
      (Exl.Program.run_source "cube A(x: int);\nB := test_triple(A);\n" reg)
  in
  Alcotest.check value "via exl" (vf 6.)
    (Option.get (Cube.find (Registry.find_exn out "B") (key [ vi 1 ])))

(* --- dimension functions --- *)

let test_dim_fn_quarter_of_date () =
  let quarter_fn = Ops.Dim_fn.find_exn "quarter" in
  Alcotest.(check (option value)) "date" (Some (vq 2023 3))
    (Ops.Dim_fn.apply quarter_fn (vd 2023 8 15));
  Alcotest.(check (option value)) "month" (Some (vq 2023 1))
    (Ops.Dim_fn.apply quarter_fn (vm 2023 2));
  Alcotest.(check (option value)) "non-temporal" None
    (Ops.Dim_fn.apply quarter_fn (vi 3))

let test_dim_fn_applicability () =
  let year_fn = Ops.Dim_fn.find_exn "year" in
  Alcotest.(check bool) "date ok" true (Ops.Dim_fn.applicable year_fn Domain.Date);
  Alcotest.(check bool) "finer period ok" true
    (Ops.Dim_fn.applicable year_fn (Domain.Period (Some Calendar.Month)));
  let month_fn = Ops.Dim_fn.find_exn "month" in
  Alcotest.(check bool) "coarser period rejected" false
    (Ops.Dim_fn.applicable month_fn (Domain.Period (Some Calendar.Year)))

(* --- black boxes --- *)

let test_blackbox_case_insensitive_lookup () =
  Alcotest.(check bool) "stl_T found" true (Option.is_some (Ops.Blackbox.find "stl_T"));
  Alcotest.(check bool) "STL_T found" true (Option.is_some (Ops.Blackbox.find "STL_T"))

let test_blackbox_default_period () =
  Alcotest.(check (option int)) "quarter" (Some 4)
    (Ops.Blackbox.default_period Calendar.Quarter);
  Alcotest.(check (option int)) "month" (Some 12)
    (Ops.Blackbox.default_period Calendar.Month);
  Alcotest.(check (option int)) "year" None
    (Ops.Blackbox.default_period Calendar.Year)

let test_blackbox_param_validation () =
  let ma = Option.get (Ops.Blackbox.find "ma") in
  match Ops.Blackbox.apply_vector ma ~params:[] ~freq:None [| 1.; 2. |] with
  | Error msg ->
      Alcotest.(check bool) "explains" true
        (Astring_contains.contains msg "parameters")
  | Ok _ -> Alcotest.fail "expected parameter error"

let test_blackbox_period_inference_failure () =
  let stl = Option.get (Ops.Blackbox.find "stl_t") in
  match
    Ops.Blackbox.apply_vector stl ~params:[] ~freq:(Some Calendar.Year)
      (Array.init 20 float_of_int)
  with
  | Error msg ->
      Alcotest.(check bool) "mentions period" true
        (Astring_contains.contains msg "period")
  | Ok _ -> Alcotest.fail "expected period inference failure"

let test_blackbox_explicit_period_param () =
  let stl = Option.get (Ops.Blackbox.find "stl_t") in
  let xs = Array.init 20 (fun i -> float_of_int (i mod 5)) in
  match Ops.Blackbox.apply_vector stl ~params:[ 5. ] ~freq:None xs with
  | Ok out -> Alcotest.(check int) "same length" 20 (Array.length out)
  | Error msg -> Alcotest.fail msg

let test_blackbox_apply_cube_slices () =
  (* Two slices with different lengths: each processed independently. *)
  let c =
    cube_of "S"
      [ ("q", Domain.Period (Some Calendar.Quarter)); ("r", Domain.String) ]
      (List.concat
         [
           List.init 10 (fun i ->
               [ vq (2020 + (i / 4)) ((i mod 4) + 1); vs "a"; vf (float_of_int i) ]);
           List.init 6 (fun i ->
               [ vq (2020 + (i / 4)) ((i mod 4) + 1); vs "b"; vf (float_of_int (2 * i)) ]);
         ])
  in
  let cumsum = Option.get (Ops.Blackbox.find "cumsum") in
  match Ops.Blackbox.apply_cube cumsum ~params:[] c with
  | Error msg -> Alcotest.fail msg
  | Ok out ->
      Alcotest.(check int) "all tuples kept" 16 (Cube.cardinality out);
      (* last value of slice b = 0+2+4+6+8+10 = 30 *)
      Alcotest.check value "slice b cumsum" (vf 30.)
        (Option.get (Cube.find out (key [ vq 2021 2; vs "b" ])))

let test_blackbox_rejects_two_time_dims () =
  let c =
    cube_of "S"
      [
        ("q", Domain.Period (Some Calendar.Quarter));
        ("d", Domain.Date);
      ]
      [ [ vq 2020 1; vd 2020 1 1; vf 1. ] ]
  in
  let cumsum = Option.get (Ops.Blackbox.find "cumsum") in
  match Ops.Blackbox.apply_cube cumsum ~params:[] c with
  | Error msg ->
      Alcotest.(check bool) "explains" true
        (Astring_contains.contains msg "temporal")
  | Ok _ -> Alcotest.fail "expected rejection"

let test_blackbox_nan_outputs_dropped () =
  let c =
    cube_of "S"
      [ ("q", Domain.Period (Some Calendar.Quarter)) ]
      (List.init 6 (fun i ->
           [ vq (2020 + (i / 4)) ((i mod 4) + 1); vf (float_of_int i) ]))
  in
  let diff = Option.get (Ops.Blackbox.find "diff") in
  match Ops.Blackbox.apply_cube diff ~params:[] c with
  | Error msg -> Alcotest.fail msg
  | Ok out ->
      (* first point of the series has no predecessor: NaN, dropped *)
      Alcotest.(check int) "one dropped" 5 (Cube.cardinality out);
      Alcotest.(check bool) "first missing" false (Cube.find out (key [ vq 2020 1 ]) <> None)

let test_blackbox_registration_end_to_end () =
  Ops.Blackbox.register ~name:"test_reverse" (fun ~params:_ ~period:_ a ->
      let n = Array.length a in
      Array.init n (fun i -> a.(n - 1 - i)));
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A"
       [ ("q", Domain.Period (Some Calendar.Quarter)) ]
       [ [ vq 2020 1; vf 1. ]; [ vq 2020 2; vf 2. ] ]);
  let out =
    check_ok
      (Exl.Program.run_source "cube A(q: quarter);\nB := test_reverse(A);\n" reg)
  in
  Alcotest.check value "reversed" (vf 2.)
    (Option.get (Cube.find (Registry.find_exn out "B") (key [ vq 2020 1 ])))

let suite =
  [
    ("binop: eval", `Quick, test_binop_eval);
    ("binop: null propagation", `Quick, test_binop_eval_value_nulls);
    ("scalar: log base", `Quick, test_scalar_log_base);
    ("scalar: param count", `Quick, test_scalar_param_count_enforced);
    ("scalar: user registration", `Quick, test_scalar_registration);
    ("dimfn: quarter", `Quick, test_dim_fn_quarter_of_date);
    ("dimfn: applicability", `Quick, test_dim_fn_applicability);
    ("blackbox: case-insensitive", `Quick, test_blackbox_case_insensitive_lookup);
    ("blackbox: default periods", `Quick, test_blackbox_default_period);
    ("blackbox: param validation", `Quick, test_blackbox_param_validation);
    ("blackbox: period inference failure", `Quick, test_blackbox_period_inference_failure);
    ("blackbox: explicit period", `Quick, test_blackbox_explicit_period_param);
    ("blackbox: slice-wise application", `Quick, test_blackbox_apply_cube_slices);
    ("blackbox: rejects two time dims", `Quick, test_blackbox_rejects_two_time_dims);
    ("blackbox: nan outputs dropped", `Quick, test_blackbox_nan_outputs_dropped);
    ("blackbox: user registration end-to-end", `Quick, test_blackbox_registration_end_to_end);
  ]
