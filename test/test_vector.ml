(* Vector (R/Matlab) target: frame engine, script generation and
   printing, end-to-end equivalence. *)
open Matrix
open Helpers
module M = Mappings

let frame_of_cols cols = Vector.Frame.create cols

(* --- frame engine --- *)

let test_merge_basic () =
  let a =
    frame_of_cols
      [ ("q", [| vi 1; vi 2 |]); ("value", [| vf 10.; vf 20. |]) ]
  in
  let b =
    frame_of_cols
      [ ("q", [| vi 2; vi 3 |]); ("value", [| vf 5.; vf 7. |]) ]
  in
  let m = Vector.Frame_ops.merge ~by:[ "q" ] a b in
  Alcotest.(check int) "one match" 1 (Vector.Frame.length m);
  Alcotest.(check (list string)) "suffixed columns"
    [ "q"; "value_x"; "value_y" ]
    (Vector.Frame.columns m);
  Alcotest.check value "left measure" (vf 20.) (Vector.Frame.column m "value_x").(0)

let test_merge_null_keys_never_match () =
  let a = frame_of_cols [ ("q", [| Value.Null |]); ("v", [| vf 1. |]) ] in
  let b = frame_of_cols [ ("q", [| Value.Null |]); ("w", [| vf 2. |]) ] in
  let m = Vector.Frame_ops.merge ~by:[ "q" ] a b in
  Alcotest.(check int) "no rows" 0 (Vector.Frame.length m)

let test_eval_col_arithmetic () =
  let f =
    frame_of_cols [ ("p", [| vf 3.; vf 0. |]); ("g", [| vf 4.; vf 5. |]) ]
  in
  let out =
    Vector.Frame_ops.eval_col f
      (Vector.Frame_ops.Bin (Ops.Binop.Div, Vector.Frame_ops.Col "g", Vector.Frame_ops.Col "p"))
  in
  Alcotest.check value "4/3" (vf (4. /. 3.)) out.(0);
  Alcotest.check value "div by zero is null" Value.Null out.(1)

let test_group_aggregate () =
  let f =
    frame_of_cols
      [
        ("r", [| vs "a"; vs "a"; vs "b" |]);
        ("value", [| vf 1.; vf 3.; vf 10. |]);
      ]
  in
  let out =
    Vector.Frame_ops.group_aggregate
      ~by:[ ("r", Vector.Frame_ops.Col "r") ]
      ~aggr:Stats.Aggregate.Avg
      ~measure:(Vector.Frame_ops.Col "value") f
  in
  Alcotest.(check int) "two groups" 2 (Vector.Frame.length out);
  let cube =
    Vector.Frame.to_cube
      (Schema.make ~name:"X" ~dims:[ ("r", Domain.String) ] ())
      out
  in
  Alcotest.check value "avg a" (vf 2.) (Option.get (Cube.find cube (key [ vs "a" ])))

let test_frame_cube_roundtrip () =
  let reg = overview_registry () in
  let pdr = Registry.find_exn reg "PDR" in
  let frame = Vector.Frame.of_cube pdr in
  let back = Vector.Frame.to_cube (Cube.schema pdr) frame in
  Alcotest.check cube_eq "roundtrip" pdr back

(* --- script generation and printing --- *)

let test_r_script_fragments () =
  let r = core_ok (Vector.Vector_target.r_script_of_mapping (overview_mapping ())) in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true
        (Astring_contains.contains r fragment))
    [
      "merge(RGDPPC, PQR, by=c(\"q\", \"r\"))";
      "t_RGDP$c_value <- t_RGDP[\"value_x\"] * t_RGDP[\"value_y\"]";
      "stl(GDP, \"periodic\")";
      "$time.series[ , \"trend\"]";
      "aggregate(";
    ]

let test_matlab_script_fragments () =
  let m =
    core_ok (Vector.Vector_target.matlab_script_of_mapping (overview_mapping ()))
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true
        (Astring_contains.contains m fragment))
    [ "join(RGDPPC, [1 2], PQR, [1 2])"; ".*"; "isolateTrend(GDP)" ]

(* PCHNG from a three-atom tgd, the shape a fusion can leave behind:
   GDPT(q, m1) ∧ GDPT(q - 1, m2) ∧ GDPT(q, m3) → PCHNG(q, m1). *)
let test_script_gen_rejects_fused () =
  let m = overview_mapping () in
  let q = var "q" in
  let pchng =
    tl
      [
        atom "GDPT" [ q; var "m1" ];
        atom "GDPT" [ M.Term.Shifted (q, -1); var "m2" ];
        atom "GDPT" [ q; var "m3" ];
      ]
      (atom "PCHNG" [ q; var "m1" ])
  in
  let fused =
    {
      m with
      M.Mapping.t_tgds =
        List.map
          (fun t -> if M.Tgd.target_relation t = "PCHNG" then pchng else t)
          m.M.Mapping.t_tgds;
    }
  in
  match Vector.Script_gen.script_of_mapping fused with
  | Error msg ->
      Alcotest.(check bool) "mentions atoms" true
        (Astring_contains.contains msg "two atoms")
  | Ok _ -> Alcotest.fail "expected rejection of >2-atom tgds"

(* --- end-to-end --- *)

let overview_names = [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]

let test_vector_target_overview () =
  let reg = overview_registry () in
  let checked = load_overview () in
  let reference = check_ok (Exl.Interp.run checked reg) in
  let via_vector = core_ok (Core.run ~backend:Core.Vector_engine checked reg) in
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Registry.find_exn reference name)
        (Registry.find_exn via_vector name))
    overview_names

(* The dispatcher's Vector_engine target == the interpreter on random
   programs (helpers.ml). *)
let prop_vector_matches_interp =
  prop_backend_matches_interp ~count:60
    ~name:"vector target == interpreter on random programs" Core.Vector_engine

(* A derived frame with two measures for one key is an [Error] of
   [execute], not an exception. *)
let test_execute_clash_is_error () =
  let mapping, registry = clashing_target () in
  check_names_shared "Vector_target.execute"
    (Vector.Vector_target.execute mapping registry)

let suite =
  [
    ("execute: clashing writes are an Error", `Quick, test_execute_clash_is_error);
    ("frame: merge", `Quick, test_merge_basic);
    ("frame: null keys never match", `Quick, test_merge_null_keys_never_match);
    ("frame: column arithmetic", `Quick, test_eval_col_arithmetic);
    ("frame: group aggregate", `Quick, test_group_aggregate);
    ("frame: cube roundtrip", `Quick, test_frame_cube_roundtrip);
    ("print: R fragments", `Quick, test_r_script_fragments);
    ("print: Matlab fragments", `Quick, test_matlab_script_fragments);
    ("gen: rejects fused tgds", `Quick, test_script_gen_rejects_fused);
    ("end-to-end: overview", `Quick, test_vector_target_overview);
    QCheck_alcotest.to_alcotest prop_vector_matches_interp;
  ]
