(* Column views and the vectorized chase: dictionary round-trips,
   the total value order and the key order, kernel semantics, snapshot
   isolation, and the A/B property that the columnar path reproduces
   the row engine exactly — same solution, same counters. *)
open Matrix
open Helpers
module M = Mappings
module X = Exchange

let qcheck_count =
  Helpers.qcheck_count ~var:"EXL_COL_QCHECK_COUNT" ~default:30

(* --- dictionaries --- *)

(* [d]'s code for [v], or -1, through [Dict.xlate]: a one-value
   dictionary translated into [d] probes [d] without extending it. *)
let probe d v =
  let p = Dict.create () in
  ignore (Dict.encode p v);
  match Dict.xlate p d with Some [| c |] -> c | _ -> assert false

let test_dict_roundtrip () =
  let d = Dict.create () in
  let values =
    [ vi 5; vf 5.; vs "a"; Value.Null; Value.Bool true; vf 2.5; vq 2020 1 ]
  in
  let codes = List.map (Dict.encode d) values in
  (* Int 5 and Float 5. are Value.equal: one code, like the row stores'
     set semantics. *)
  Alcotest.(check int) "int/float conflate" (List.nth codes 0) (List.nth codes 1);
  Alcotest.(check int) "distinct values, distinct codes" 6 (Dict.size d);
  List.iteri
    (fun i c ->
      Alcotest.check value "decode round-trips" (List.nth values i)
        (Dict.decode d c))
    codes;
  Alcotest.(check bool) "null code" true (Dict.is_null d (List.nth codes 3));
  Alcotest.(check bool) "find hit" true (probe d (vs "a") >= 0);
  Alcotest.(check bool) "find never adds" true (probe d (vs "zz") = -1);
  Alcotest.(check int) "size unchanged by find" 6 (Dict.size d);
  (* encode is idempotent *)
  Alcotest.(check int) "re-encode" (List.nth codes 2) (Dict.encode d (vs "a"))

let test_dict_xlate () =
  let a = Dict.create () and b = Dict.create () in
  List.iter (fun v -> ignore (Dict.encode a v)) [ vs "x"; vs "y"; vs "z" ];
  List.iter (fun v -> ignore (Dict.encode b v)) [ vs "z"; vs "x" ];
  (match Dict.xlate a b with
  | None -> Alcotest.fail "distinct dicts must translate"
  | Some x ->
      (* x -> b's 1, y -> missing, z -> b's 0 *)
      Alcotest.(check (array int)) "translation" [| 1; -1; 0 |] x);
  Alcotest.(check bool) "same dict needs no translation" true
    (Dict.xlate a a = None)

(* The dictionary's probe is unobservable: over random value lists
   ([Helpers.gen_dict_value]), [encode] issues the codes a first-seen
   association list issues under [Value.equal], and a probe through
   [xlate] agrees with the list on values encoded and not. *)
let prop_dict_matches_model =
  QCheck.Test.make ~count:qcheck_count
    ~name:"dict codes == first-seen association list under Value.equal"
    (QCheck.make
       ~print:(fun (vs, probes) ->
         String.concat " " (List.map Value.to_string vs)
         ^ " | " ^ String.concat " " (List.map Value.to_string probes))
       QCheck.Gen.(pair (list_size (int_bound 200) gen_dict_value)
                     (list_size (int_bound 20) gen_dict_value)))
    (fun (values, probes) ->
      let d = Dict.create () in
      let model = ref [] in
      let lookup v =
        List.find_map (fun (w, c) -> if Value.equal w v then Some c else None)
          (List.rev !model)
      in
      List.for_all
        (fun v ->
          let expected =
            match lookup v with
            | Some c -> c
            | None ->
                let c = List.length !model in
                model := (v, c) :: !model;
                c
          in
          Dict.encode d v = expected
          || QCheck.Test.fail_reportf "encode %s: code %d, model %d"
               (Value.to_string v) (Dict.encode d v) expected)
        values
      && Dict.size d = List.length !model
      && List.for_all
           (fun v -> probe d v = Option.value (lookup v) ~default:(-1)
             || QCheck.Test.fail_reportf "find %s disagrees" (Value.to_string v))
           (values @ probes))

(* --- the total value order --- *)

let sign c = Int.compare c 0

(* [Value.compare] is a total order over mixed values, big ints and
   the floats they round to included, and [equal] and [hash] agree
   with it: the key order ranks dictionary values with it. *)
let prop_value_order_total =
  QCheck.Test.make ~count:(10 * qcheck_count)
    ~name:"Value.compare is a total order, agreeing with equal and hash"
    (QCheck.make
       ~print:(fun (a, b, c) ->
         String.concat " | "
           (List.map (fun v -> Value.type_name v ^ " " ^ Value.to_string v) [ a; b; c ]))
       QCheck.Gen.(triple gen_dict_value gen_dict_value gen_dict_value))
    (fun (a, b, c) ->
      let le x y = Value.compare x y <= 0 in
      (sign (Value.compare a b) = - sign (Value.compare b a)
      || QCheck.Test.fail_report "not antisymmetric")
      && ((not (le a b && le b c)) || le a c
         || QCheck.Test.fail_report "not transitive")
      && (Value.equal a b = (Value.compare a b = 0)
         || QCheck.Test.fail_report "equal disagrees with compare")
      && ((not (Value.equal a b)) || Value.hash a = Value.hash b
         || QCheck.Test.fail_report "equal values hash apart"))

let test_value_order_exact () =
  let p53 = 0x20000000000000 in
  Alcotest.(check int) "2^53 + 1 above its float" 1
    (Value.compare (vi (p53 + 1)) (vf 0x1p53));
  Alcotest.(check int) "2^53 equals its float" 0 (Value.compare (vi p53) (vf 0x1p53));
  Alcotest.(check int) "-2^53 - 1 below its float" (-1)
    (Value.compare (vi (-p53 - 1)) (vf (-0x1p53)));
  Alcotest.(check int) "max_int below 2^62" (-1) (Value.compare (vi max_int) (vf 0x1p62));
  Alcotest.(check int) "min_int equals -2^62" 0 (Value.compare (vi min_int) (vf (-0x1p62)));
  Alcotest.(check int) "fraction above" (-1) (Value.compare (vi 1) (vf 1.5));
  Alcotest.(check int) "negative fraction below" 1 (Value.compare (vi (-1)) (vf (-1.5)));
  Alcotest.(check int) "nan below ints" 1 (Value.compare (vi min_int) (vf Float.nan));
  Alcotest.(check int) "-0. equals 0" 0 (Value.compare (vf (-0.)) (vi 0))

(* --- views of relations --- *)

(* A relation's facts, inserted in any order, come back from its view
   in sorted order, each value the same one inserted; measures that
   are [Null] or not numeric are kept, and read as no float. *)
let test_view_roundtrip () =
  let schema =
    Schema.make ~name:"B" ~dims:[ ("r", Domain.String); ("x", Domain.Int) ] ()
  in
  let facts =
    [
      [| vs "n"; vi 1; vf 2.5 |];
      [| vs "s"; vi 2; Value.Null |];
      [| vs "n"; vi 2; vs "oops" |];
      [| vs "s"; vf 1.; vf Float.nan |];
    ]
  in
  let inst = X.Instance.create () in
  X.Instance.add_relation inst schema;
  List.iter (fun f -> ignore (X.Instance.insert inst "B" f : bool)) facts;
  let v = X.Instance.view inst "B" in
  Alcotest.(check int) "rows" 4 v.Cube.size;
  Alcotest.(check (array int)) "sorted facts: identity key order" [| 0; 1; 2; 3 |]
    (Cube.key_order v);
  let sorted =
    List.sort (fun a b -> Tuple.compare (Tuple.of_array a) (Tuple.of_array b)) facts
  in
  List.iteri
    (fun r f ->
      let g = Cube.row v r in
      Alcotest.(check int) "width" (Array.length f) (Array.length g);
      Array.iteri
        (fun i x ->
          Alcotest.(check bool) "round-trips, the same value" true
            (Value.type_name x = Value.type_name g.(i) && Value.equal x g.(i)))
        f)
    sorted;
  let floats = Array.make 4 0. in
  let defined r = Kernels.read_float floats r v.Cube.measures.(r) in
  Alcotest.(check (list bool)) "numeric measures read as floats"
    [ true; false; true; false ]
    (List.init 4 defined);
  (* NaN is a float: a defined measure, like Value.to_float says *)
  Alcotest.(check bool) "nan gathered" true (Float.is_nan floats.(2));
  (* every view has dictionaries of its own; a join translates codes *)
  let w =
    let b = Cube.builder 2 in
    Cube.add b [| vs "s"; vi 9; vf 0. |];
    Cube.seal b
  in
  Alcotest.(check bool) "dictionaries of its own" true (w.Cube.dicts.(0) != v.Cube.dicts.(0));
  Alcotest.(check (option (array int))) "translated to its code in the other"
    (Some [| probe v.Cube.dicts.(0) (vs "s") |])
    (Dict.xlate w.Cube.dicts.(0) v.Cube.dicts.(0));
  Alcotest.(check bool) "a code of a value the other holds" true
    (probe v.Cube.dicts.(0) (vs "s") >= 0)

(* --- kernels --- *)

let test_kernels () =
  (* mixed-radix packing is exact *)
  Alcotest.(check (array int))
    "packed" [| 3; 1; 5 |]
    (Kernels.dense_keys ~nrows:3 [| [| 0; 1; 2 |]; [| 1; 0; 1 |] |] [| 3; 2 |]);
  (* a negative code poisons its row's key *)
  Alcotest.(check (array int))
    "poisoned" [| 0; -1 |]
    (Kernels.dense_keys ~nrows:2 [| [| 0; -1 |] |] [| 4 |]);
  (* overflow falls to the wide renumbering path, same partition *)
  let col = [| 0; 1; 0; 2 |] in
  Alcotest.(check (array int))
    "wide keys" [| 0; 1; 0; 2 |]
    (Kernels.dense_keys ~nrows:4 [| col; col |] [| max_int; max_int |]);
  (* group: first-seen ids and representative rows *)
  let g = Kernels.group [| 7; 3; 7; 9; 3 |] in
  Alcotest.(check (array int)) "gids" [| 0; 1; 0; 2; 1 |] g.Kernels.gids;
  Alcotest.(check int) "n_groups" 3 g.Kernels.n_groups;
  Alcotest.(check (array int)) "rep rows" [| 0; 1; 3 |] g.Kernels.rep_rows;
  (* segment: stable within each group *)
  let offsets, data = Kernels.segment g [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check (array int)) "offsets" [| 0; 2; 4; 5 |] offsets;
  Alcotest.check float_array "segmented" [| 1.; 3.; 2.; 5.; 4. |] data;
  (* hash join: probe order, per-probe bucket sizes, poisoned keys *)
  let pairs = ref [] and probes = ref [] in
  Kernels.hash_join ~build_keys:[| 1; 2; 1; -1 |] ~probe_keys:[| 1; -1; 5; 2 |]
    ~on_probe:(fun pr size -> probes := (pr, size) :: !probes)
    (fun pr br -> pairs := (pr, br) :: !pairs);
  Alcotest.(check (list (pair int int)))
    "bucket sizes" [ (0, 2); (1, 0); (2, 0); (3, 1) ]
    (List.rev !probes);
  Alcotest.(check (list (pair int int)))
    "pairs" [ (0, 2); (0, 0); (3, 1) ]
    (List.rev !pairs);
  (* ranks: a dictionary's codes by value *)
  let d = Dict.create () in
  List.iter (fun v -> ignore (Dict.encode d v : int)) [ vs "b"; vi 3; vs "a"; vf 1.5 ];
  let rank = Kernels.ranks d in
  Alcotest.(check (array int)) "ranks" [| 3; 1; 2; 0 |] rank;
  (* sort_rows: counting sort by column 0, column 1 inside its ties,
     rows that tie on both in [sel] order *)
  let col0 = lazy ([| 0; 1; 0; 2; 0 |], rank) in
  let col1 = lazy ([| 1; 0; 1; 0; 0 |], [| 1; 0 |]) in
  let order, compares = Kernels.sort_rows [| col0; col1 |] [| 4; 0; 1; 2; 3 |] in
  Alcotest.(check (array int)) "positions in key order" [| 2; 4; 1; 3; 0 |] order;
  Alcotest.(check bool) "comparisons only inside column 0's one tie" true
    (compares >= 2 && compares <= 3)

(* --- snapshot isolation (a snapshot rebuilds its own indexes) --- *)

let test_snapshot_isolation () =
  let inst = X.Instance.create () in
  X.Instance.add_relation inst
    (Schema.make ~name:"A" ~dims:[ ("x", Domain.Int) ] ());
  for i = 1 to 5 do
    ignore (X.Instance.insert inst "A" [| vi i; vf (float_of_int i) |])
  done;
  X.Instance.ensure_index inst "A" [ 0 ];
  let snap = X.Instance.copy inst in
  (* mutate the original: the snapshot's indexes, rebuilt from its own
     rows, must keep the pre-mutation view *)
  ignore (X.Instance.insert inst "A" [| vi 9; vf 9. |]);
  ignore (X.Instance.remove inst "A" [| vi 1; vf 1. |]);
  Alcotest.(check int) "orig cardinality" 5 (X.Instance.cardinality inst "A");
  Alcotest.(check int) "snap cardinality" 5 (X.Instance.cardinality snap "A");
  Alcotest.(check int) "snap keeps removed fact" 1
    (List.length (X.Instance.lookup_index snap "A" [ 0 ] [ vi 1 ]));
  Alcotest.(check int) "snap misses new fact" 0
    (List.length (X.Instance.lookup_index snap "A" [ 0 ] [ vi 9 ]));
  Alcotest.(check int) "orig sees new fact" 1
    (List.length (X.Instance.lookup_index inst "A" [ 0 ] [ vi 9 ]));
  Alcotest.(check int) "orig dropped removed fact" 0
    (List.length (X.Instance.lookup_index inst "A" [ 0 ] [ vi 1 ]));
  (* mutate the snapshot: independent in the other direction too *)
  ignore (X.Instance.insert snap "A" [| vi 7; vf 7. |]);
  Alcotest.(check int) "orig misses snap's fact" 0
    (List.length (X.Instance.lookup_index inst "A" [ 0 ] [ vi 7 ]));
  Alcotest.(check int) "snap sees its fact" 1
    (List.length (X.Instance.lookup_index snap "A" [ 0 ] [ vi 7 ]))

let test_set_view_lazy () =
  let schema = Schema.make ~name:"S" ~dims:[ ("x", Domain.Int) ] () in
  let src = X.Instance.create () in
  X.Instance.add_relation src schema;
  for i = 1 to 4 do
    ignore (X.Instance.insert src "S" [| vi i; vf (float_of_int i) |])
  done;
  let v = X.Instance.view src "S" in
  let tgt = X.Instance.create () in
  X.Instance.add_relation tgt schema;
  X.Instance.set_view tgt schema v;
  (* whole-relation reads serve straight from the pending view *)
  Alcotest.(check int) "cardinality from view" 4 (X.Instance.cardinality tgt "S");
  Alcotest.(check int) "facts from view" 4
    (List.length (X.Instance.facts tgt "S"));
  Alcotest.(check bool) "the installed view is served, not re-encoded" true
    (X.Instance.view tgt "S" == v);
  (* snapshot while pending, then materialize and mutate one side *)
  let snap = X.Instance.copy tgt in
  Alcotest.(check bool) "mem materializes" true
    (X.Instance.mem tgt "S" [| vi 2; vf 2. |]);
  ignore (X.Instance.remove tgt "S" [| vi 2; vf 2. |]);
  Alcotest.(check int) "mutated side" 3 (X.Instance.cardinality tgt "S");
  Alcotest.(check bool) "a mutation drops the view" true (X.Instance.view tgt "S" != v);
  Alcotest.(check int) "snapshot untouched" 4 (X.Instance.cardinality snap "S");
  Alcotest.(check bool) "snapshot keeps the fact" true
    (X.Instance.mem snap "S" [| vi 2; vf 2. |]);
  (* schema mismatch is rejected *)
  let t2 = X.Instance.create () in
  X.Instance.add_relation t2
    (Schema.make ~name:"S" ~dims:[ ("x", Domain.String) ] ());
  match X.Instance.set_view t2 schema v with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "schema mismatch accepted"

(* A cube version's key order is [Cube.to_alist]'s order, and an
   instance [of_registry] serves the cube's facts in it, each key the
   very value stored.  Keys mix the values the dictionaries conflate
   ([Int 1] and [Float 1.], [0.] and [-0.]), NaN, ints beyond +-2^53,
   dates, periods and [Null]. *)
let prop_key_order =
  let fact =
    QCheck.Gen.(
      map (fun (a, b, m) -> (key [ a; b ], m))
        (triple gen_dict_value gen_dict_value gen_dict_value))
  in
  QCheck.Test.make ~count:qcheck_count
    ~name:"a view's key order == Cube.to_alist order"
    (QCheck.make
       ~print:(fun facts ->
         String.concat "; "
           (List.map
              (fun (k, m) -> Tuple.to_string k ^ " -> " ^ Value.to_string m)
              facts))
       QCheck.Gen.(list_size (int_bound 60) fact))
    (fun facts ->
      let schema =
        Schema.make ~name:"S" ~dims:[ ("a", Domain.Any); ("b", Domain.Any) ] ()
      in
      let c = Cube.create schema in
      List.iter (fun (k, m) -> Cube.set c k m) facts;
      let reg = Registry.create () in
      Registry.add reg Registry.Elementary c;
      let expected = List.map (fun (k, m) -> Tuple.append k m) (Cube.to_alist c) in
      let same = List.equal (Array.for_all2 identical) in
      let v = Cube.view c in
      same (List.map (Cube.row v) (Array.to_list (Cube.key_order v))) expected
      || QCheck.Test.fail_report "key order differs from to_alist"
      && (same (X.Instance.facts (X.Instance.of_registry reg) "S") expected
         || QCheck.Test.fail_report "instance facts differ from to_alist"))

(* --- deterministic A/B on the worked example --- *)

let facts_equal f1 f2 =
  List.length f1 = List.length f2
  && List.for_all2
       (fun a b ->
         Array.length a = Array.length b && Array.for_all2 Value.equal a b)
       f1 f2

let check_same_run mapping reg =
  match
    ( X.Chase.run ~columnar:false mapping (X.Instance.of_registry reg),
      X.Chase.run ~columnar:true mapping (X.Instance.of_registry reg) )
  with
  | Ok (j1, s1), Ok (j2, s2) ->
      List.iter
        (fun (s : Schema.t) ->
          let name = s.Schema.name in
          Alcotest.(check bool)
            (name ^ " facts identical") true
            (facts_equal (X.Instance.facts j1 name) (X.Instance.facts j2 name)))
        mapping.M.Mapping.target;
      Alcotest.(check int)
        "matches_examined" s1.X.Chase.matches_examined s2.X.Chase.matches_examined;
      Alcotest.(check int)
        "tuples_generated" s1.X.Chase.tuples_generated s2.X.Chase.tuples_generated;
      Alcotest.(check int) "tgds_applied" s1.X.Chase.tgds_applied s2.X.Chase.tgds_applied;
      Alcotest.(check int) "egd_checks" s1.X.Chase.egd_checks s2.X.Chase.egd_checks;
      Alcotest.(check int) "nulls_created" s1.X.Chase.nulls_created s2.X.Chase.nulls_created;
      Alcotest.(check int) "rounds" s1.X.Chase.rounds s2.X.Chase.rounds
  | Error e, _ | _, Error e -> Alcotest.failf "chase failed: %s" e

let test_overview_ab () =
  let reg = overview_registry () in
  let checked = load_overview () in
  let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked checked) in
  check_same_run mapping reg

(* --- the property: chase ~columnar:true == chase ~columnar:false --- *)

(* Both runs of [src] must agree on every target relation, every
   counter, and (when both fail) the error. *)
let same_run ~what src mapping r1 r2 =
  match (r1, r2) with
  | Ok (j1, s1), Ok (j2, s2) ->
      List.iter
        (fun (s : Schema.t) ->
          let name = s.Schema.name in
          if
            not
              (facts_equal (X.Instance.facts j1 name)
                 (X.Instance.facts j2 name))
          then
            QCheck.Test.fail_reportf "%s: relation %s differs on\n%s" what
              name src)
        mapping.M.Mapping.target;
      if
        s1.X.Chase.matches_examined <> s2.X.Chase.matches_examined
        || s1.X.Chase.tuples_generated <> s2.X.Chase.tuples_generated
        || s1.X.Chase.tgds_applied <> s2.X.Chase.tgds_applied
        || s1.X.Chase.egd_checks <> s2.X.Chase.egd_checks
        || s1.X.Chase.nulls_created <> s2.X.Chase.nulls_created
        || s1.X.Chase.rounds <> s2.X.Chase.rounds
      then
        QCheck.Test.fail_reportf
          "%s: stats diverge (%d/%d/%d/%d/%d/%d vs %d/%d/%d/%d/%d/%d) on\n%s"
          what s1.X.Chase.matches_examined s1.X.Chase.tuples_generated
          s1.X.Chase.tgds_applied s1.X.Chase.egd_checks s1.X.Chase.nulls_created
          s1.X.Chase.rounds s2.X.Chase.matches_examined
          s2.X.Chase.tuples_generated s2.X.Chase.tgds_applied
          s2.X.Chase.egd_checks s2.X.Chase.nulls_created s2.X.Chase.rounds src
  | Error e1, Error e2 ->
      if e1 <> e2 then
        QCheck.Test.fail_reportf "%s: error messages diverge (%s vs %s) on\n%s"
          what e1 e2 src
  | Ok _, Error e ->
      QCheck.Test.fail_reportf "%s: second run failed, first passed: %s\n%s"
        what e src
  | Error e, Ok _ ->
      QCheck.Test.fail_reportf "%s: first run failed, second passed: %s\n%s"
        what e src

(* The columnar leg must reproduce the row engine, and chasing the
   statement tgds in reverse order must reproduce the columnar leg:
   the chase orders tgds by dependency, not by statement. *)
let prop_columnar_matches_row =
  QCheck.Test.make ~count:qcheck_count
    ~name:"chase ~columnar:true == chase ~columnar:false on random programs"
    Gen.arb_seed (fun seed ->
      let src, reg = Gen.program_of_seed seed in
      match Exl.Program.load src with
      | Error e ->
          QCheck.Test.fail_reportf "generated program does not check: %s\n%s"
            (Exl.Errors.to_string e) src
      | Ok checked ->
          let { M.Generate.mapping; _ } =
            check_ok (M.Generate.of_checked checked)
          in
          let run ~columnar m =
            X.Chase.run ~columnar m (X.Instance.of_registry reg)
          in
          let reversed =
            { mapping with
              M.Mapping.t_tgds = List.rev mapping.M.Mapping.t_tgds }
          in
          let col = run ~columnar:true mapping in
          same_run ~what:"row vs columnar" src mapping
            (run ~columnar:false mapping) col;
          same_run ~what:"statement order vs reversed" src mapping col
            (run ~columnar:true reversed);
          true)

(* --- sealed relations: a kernel's output written as a column view --- *)

let quarter = ("q", Domain.Period (Some Calendar.Quarter))
let region = ("r", Domain.String)
let schema name dims = Schema.make ~name ~dims ()

(* A mapping that copies [sources] and derives [derived] by [tgds],
   each derived relation under its functionality egd. *)
let hand_mapping ~sources ~derived tgds =
  {
    M.Mapping.source = sources;
    target = sources @ derived;
    st_tgds = [];
    t_tgds = tgds;
    egds = List.map M.Egd.of_schema derived;
  }

let registry cubes =
  let reg = Registry.create () in
  List.iter (Registry.add reg Registry.Elementary) cubes;
  reg

(* One chase leg over [reg], with the egd checks it flushed, which a
   failed chase reports only there. *)
let counted_run ~columnar mapping reg =
  let c = Obs.create ~spans:false () in
  let r =
    Obs.with_collector c (fun () ->
        X.Chase.run ~columnar mapping (X.Instance.of_registry reg))
  in
  (r, Obs.Metrics.counter_value c.Obs.metrics "chase.egd_checks")

(* The columnar leg, after checking it against the row leg: the same
   solution, counters and error text ([same_run]) and the same egd
   checks. *)
let sealed_same_run ~what mapping reg =
  let row, row_checks = counted_run ~columnar:false mapping reg in
  let col, col_checks = counted_run ~columnar:true mapping reg in
  same_run ~what "" mapping row col;
  Alcotest.(check int) (what ^ ": egd checks") row_checks col_checks;
  col

let solution what = function
  | Ok (j, stats) -> (j, stats)
  | Error e -> Alcotest.failf "%s: chase failed: %s" what e

let project_out_region = tl [ atom "A" [ var "q"; var "r"; var "m" ] ] (atom "P" [ var "q"; var "m" ])
let a_schema = schema "A" [ quarter; region ]
let p_schema = schema "P" [ quarter ]

(* Dropping the region repeats each quarter's fact: the sealed view
   keeps one of each, and only the facts kept are counted. *)
let test_sealed_duplicates () =
  let reg =
    registry
      [
        cube_of "A" [ quarter; region ]
          [
            [ vq 2024 1; vs "n"; vf 1. ];
            [ vq 2024 1; vs "s"; vf 1. ];
            [ vq 2024 2; vs "n"; vf 2. ];
            [ vq 2024 2; vs "s"; vf 2. ];
          ];
      ]
  in
  let mapping = hand_mapping ~sources:[ a_schema ] ~derived:[ p_schema ] [ project_out_region ] in
  let j, stats = solution "duplicates" (sealed_same_run ~what:"duplicates" mapping reg) in
  Alcotest.(check int) "facts kept" 2 (X.Instance.cardinality j "P");
  Alcotest.(check int) "tuples generated" 2 stats.X.Chase.tuples_generated;
  Alcotest.(check bool) "P is a sealed view" true (X.Instance.cached_view j "P" <> None)

(* [Int 1] and [Float 1.] are one key value: of the two facts they
   project to, the one emitted first stays, as in a row store.  The
   kernel walks A in key order, so the one in region "a" comes first. *)
let test_sealed_int_float () =
  let x = ("x", Domain.Any) in
  let mapping =
    hand_mapping ~sources:[ schema "A" [ x; region ] ] ~derived:[ schema "P" [ x ] ]
      [ tl [ atom "A" [ var "x"; var "r"; var "m" ] ] (atom "P" [ var "x"; var "m" ]) ]
  in
  List.iter
    (fun (first, second) ->
      let reg =
        registry
          [ cube_of "A" [ x; region ] [ [ first; vs "a"; vf 5. ]; [ second; vs "b"; vf 5. ] ] ]
      in
      let what = Value.type_name first ^ " emitted first" in
      let j, _ = solution what (sealed_same_run ~what mapping reg) in
      match X.Instance.facts j "P" with
      | [ [| k; _ |] ] -> Alcotest.(check bool) (what ^ ": it stays") true (identical k first)
      | facts -> Alcotest.failf "%s: %d facts" what (List.length facts))
    [ (vi 1, vf 1.); (vf 1., vi 1) ]

(* Two measures for Q2 in P: both legs fail with the same message,
   after the same checks (up to the violation, in key order). *)
let test_sealed_egd_violation () =
  let reg =
    registry
      [
        cube_of "A" [ quarter; region ]
          [
            [ vq 2024 1; vs "n"; vf 1. ];
            [ vq 2024 2; vs "n"; vf 2. ];
            [ vq 2024 2; vs "s"; vf 3. ];
            [ vq 2024 3; vs "n"; vf 4. ];
          ];
      ]
  in
  let mapping = hand_mapping ~sources:[ a_schema ] ~derived:[ p_schema ] [ project_out_region ] in
  match sealed_same_run ~what:"egd violation" mapping reg with
  | Ok _ -> Alcotest.fail "the violation passed"
  | Error msg ->
      Alcotest.(check string) "message"
        "chase failed: egd violation: P has two measures (2, 3) for (2024Q2)" msg;
      Alcotest.(check int) "checks up to the violation" 3
        (snd (counted_run ~columnar:true mapping reg))

(* An empty source seals empty relations, through a projection and an
   aggregation alike. *)
let test_sealed_empty () =
  let reg = registry [ Cube.create a_schema ] in
  let mapping =
    hand_mapping ~sources:[ a_schema ]
      ~derived:[ p_schema; schema "S" [ region ] ]
      [
        project_out_region;
        sum_tgd (atom "A" [ var "q"; var "r"; var "m" ]) ~group_by:[ var "r" ] ~measure:"m" "S";
      ]
  in
  let j, stats = solution "empty" (sealed_same_run ~what:"empty source" mapping reg) in
  Alcotest.(check (pair int int)) "no facts" (0, 0)
    (X.Instance.cardinality j "P", X.Instance.cardinality j "S");
  Alcotest.(check int) "none generated" 0 stats.X.Chase.tuples_generated

(* A sealed relation read by the row matcher: a three-atom tgd joins P
   with two sources, and materializes P's rows to probe it. *)
let test_sealed_row_reader () =
  let rows name =
    cube_of name [ quarter; region ]
      (List.concat_map
         (fun q -> [ [ vq 2024 q; vs "n"; vf (float_of_int q) ]; [ vq 2024 q; vs "s"; vf 10. ] ])
         [ 1; 2; 3 ])
  in
  let reg = registry [ rows "A"; rows "B"; rows "C" ] in
  let qr = [ quarter; region ] in
  let mapping =
    hand_mapping
      ~sources:[ a_schema; schema "B" qr; schema "C" qr ]
      ~derived:[ schema "P" qr; schema "T" qr ]
      [
        tl [ atom "A" [ var "q"; var "r"; var "m" ] ] (atom "P" [ var "q"; var "r"; var "m" ]);
        tl
          [
            atom "P" [ var "q"; var "r"; var "x" ];
            atom "B" [ var "q"; var "r"; var "y" ];
            atom "C" [ var "q"; var "r"; var "z" ];
          ]
          (atom "T" [ var "q"; var "r"; var "x" ]);
      ]
  in
  let j, _ = solution "row reader" (sealed_same_run ~what:"three-atom reader" mapping reg) in
  Alcotest.(check int) "T joins every P fact" 6 (X.Instance.cardinality j "T")

let suite =
  [
    ("dict: encode/decode round-trip", `Quick, test_dict_roundtrip);
    ("dict: cross-dictionary translation", `Quick, test_dict_xlate);
    QCheck_alcotest.to_alcotest prop_dict_matches_model;
    ("value: exact int/float order", `Quick, test_value_order_exact);
    QCheck_alcotest.to_alcotest prop_value_order_total;
    ("view: round-trip with null measures", `Quick, test_view_roundtrip);
    ("kernels: pack/group/segment/join", `Quick, test_kernels);
    ("instance: snapshot isolation (COW indexes)", `Quick, test_snapshot_isolation);
    ("instance: set_view lazy row views", `Quick, test_set_view_lazy);
    QCheck_alcotest.to_alcotest prop_key_order;
    ("chase: columnar A/B on the overview", `Quick, test_overview_ab);
    QCheck_alcotest.to_alcotest prop_columnar_matches_row;
    ("sealed: duplicate facts", `Quick, test_sealed_duplicates);
    ("sealed: Int 1 beside Float 1.", `Quick, test_sealed_int_float);
    ("sealed: egd violation", `Quick, test_sealed_egd_violation);
    ("sealed: empty source", `Quick, test_sealed_empty);
    ("sealed: read by a three-atom tgd", `Quick, test_sealed_row_reader);
  ]
