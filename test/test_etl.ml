(* ETL target: flow generation (paper Figure 1), the streaming engine,
   Kettle catalog serialization, end-to-end equivalence. *)
open Matrix
open Helpers
module M = Mappings

let overview_job () = core_ok (Etl.Etl_gen.job_of_mapping (overview_mapping ()))

(* --- flow structure --- *)

let test_figure1_flow_shape () =
  (* Figure 1: the flow for tgd (2) is two data sources -> merge ->
     calculation -> output. *)
  let job = overview_job () in
  let flow =
    List.find (fun f -> f.Etl.Flow.name = "compute_RGDP") job.Etl.Job.flows
  in
  let kinds = List.map Etl.Step.kind flow.Etl.Flow.steps in
  Alcotest.(check (list string)) "figure 1 step sequence"
    [ "TableInput"; "TableInput"; "MergeJoin"; "Calculator"; "SelectValues"; "TableOutput" ]
    kinds;
  Alcotest.(check (list string)) "reads both cubes"
    [ "RGDPPC"; "PQR" ]
    (Etl.Flow.input_cubes flow);
  Alcotest.(check string) "writes RGDP" "RGDP" (Etl.Flow.output_cube flow)

let test_aggregation_flow_has_sort_and_group () =
  let job = overview_job () in
  let flow =
    List.find (fun f -> f.Etl.Flow.name = "compute_GDP") job.Etl.Job.flows
  in
  let kinds = List.map Etl.Step.kind flow.Etl.Flow.steps in
  Alcotest.(check bool) "has sort" true (List.mem "SortRows" kinds);
  Alcotest.(check bool) "has group" true (List.mem "GroupBy" kinds)

let test_blackbox_flow_user_defined () =
  let job = overview_job () in
  let flow =
    List.find (fun f -> f.Etl.Flow.name = "compute_GDPT") job.Etl.Job.flows
  in
  Alcotest.(check bool) "user-defined step" true
    (List.mem "UserDefined" (List.map Etl.Step.kind flow.Etl.Flow.steps))

let test_flow_validation_rejects_cycles () =
  let bad =
    [
      Etl.Step.Sort { step = "a"; input = "b" };
      Etl.Step.Sort { step = "b"; input = "a" };
    ]
  in
  match Etl.Flow.make ~name:"bad" bad with
  | Error msg ->
      Alcotest.(check bool) "mentions undefined" true
        (Astring_contains.contains msg "undefined")
  | Ok _ -> Alcotest.fail "expected validation error"

let test_flow_validation_requires_one_output () =
  let steps = [ Etl.Step.Table_input { step = "in"; cube = "A" } ] in
  match Etl.Flow.make ~name:"no_out" steps with
  | Error msg ->
      Alcotest.(check bool) "mentions output" true
        (Astring_contains.contains msg "output")
  | Ok _ -> Alcotest.fail "expected validation error"

(* --- kettle serialization --- *)

let test_kettle_xml () =
  let xml =
    core_ok (Etl.Etl_target.kettle_catalog_of_mapping (overview_mapping ()))
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true
        (Astring_contains.contains xml fragment))
    [
      "<job>";
      "<transformation>";
      "<type>MergeJoin</type>";
      "<type>TableOutput</type>";
      "<hop><from>in_left</from><to>merge</to></hop>";
      "<formula>";
    ]

let test_kettle_escaping () =
  Alcotest.(check string) "escape" "a &lt;b&gt; &amp; &quot;c&quot;"
    (Etl.Kettle.escape "a <b> & \"c\"")

(* --- engine --- *)

let overview_names = [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ]

let test_etl_target_overview () =
  let reg = overview_registry () in
  let checked = load_overview () in
  let reference = check_ok (Exl.Interp.run checked reg) in
  let via_etl = core_ok (Core.run ~backend:Core.Etl_engine checked reg) in
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name)
        (Registry.find_exn reference name)
        (Registry.find_exn via_etl name))
    overview_names

let test_batch_size_is_semantics_neutral () =
  let reg = overview_registry () in
  let mapping = overview_mapping () in
  let a = core_ok (Etl.Etl_target.execute ~batch_size:7 mapping reg) in
  let b = core_ok (Etl.Etl_target.execute ~batch_size:100000 mapping reg) in
  List.iter
    (fun name ->
      Alcotest.check cube_eq ("cube " ^ name) (Registry.find_exn a name)
        (Registry.find_exn b name))
    overview_names

(* The dispatcher's Etl_engine target == the interpreter on random
   programs (helpers.ml). *)
let prop_etl_matches_interp =
  prop_backend_matches_interp ~count:60
    ~name:"ETL target == interpreter on random programs" Core.Etl_engine

(* A flow writing two measures for one key is an [Error] of [execute],
   not an exception. *)
let test_execute_clash_is_error () =
  let mapping, registry = clashing_target () in
  check_names_shared "Etl_target.execute" (Etl.Etl_target.execute mapping registry)

let suite =
  [
    ("flow: figure 1 shape", `Quick, test_figure1_flow_shape);
    ("flow: aggregation sort+group", `Quick, test_aggregation_flow_has_sort_and_group);
    ("flow: blackbox user-defined", `Quick, test_blackbox_flow_user_defined);
    ("flow: validation rejects undefined inputs", `Quick, test_flow_validation_rejects_cycles);
    ("flow: validation requires one output", `Quick, test_flow_validation_requires_one_output);
    ("kettle: xml catalog", `Quick, test_kettle_xml);
    ("kettle: escaping", `Quick, test_kettle_escaping);
    ("end-to-end: overview", `Quick, test_etl_target_overview);
    ("end-to-end: batch size neutral", `Quick, test_batch_size_is_semantics_neutral);
    ("execute: clashing writes are an Error", `Quick, test_execute_clash_is_error);
    QCheck_alcotest.to_alcotest prop_etl_matches_interp;
  ]
