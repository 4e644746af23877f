(* The sharded chase (lib/shard): co-partitioning plans on the worked
   example, the split's disjoint-union invariant, solution equality
   against the unsharded chase (hash and range, chosen and explicit
   keys), deferred egd checks firing identically after the merge, and
   the qcheck property sharded == unsharded over random programs. *)
open Matrix
open Helpers
module M = Mappings
module X = Exchange

let overview_mapping () =
  let checked = load_overview () in
  let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked checked) in
  mapping

(* --- the co-partitioning plan on the worked example --- *)

let test_plan_overview () =
  let mapping = overview_mapping () in
  let plan =
    match Shard.Partition.make ~shards:4 mapping with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan failed: %s" e
  in
  (* "r" keeps the heavy statements (PQR's aggregation, RGDP's join)
     shard-local; "q" would replicate the PQR aggregation per shard. *)
  Alcotest.(check string) "chosen key" "r" plan.Shard.Partition.key;
  let status rel =
    match List.assoc_opt rel plan.Shard.Partition.status with
    | Some s -> Shard.Partition.status_to_string s
    | None -> Alcotest.failf "%s not classified" rel
  in
  List.iter
    (fun rel ->
      Alcotest.(check string) (rel ^ " partitioned") "partitioned@1"
        (status rel))
    [ "PDR"; "RGDPPC"; "PQR"; "RGDP" ];
  (* the total aggregate drops r, so GDP and everything downstream is
     computed only after the merge *)
  List.iter
    (fun rel ->
      Alcotest.(check string) (rel ^ " residual") "residual" (status rel))
    [ "GDP"; "GDPT"; "PCHNG" ];
  Alcotest.(check int) "local tgds" 2
    (List.length plan.Shard.Partition.local);
  (* normalization splits statement (5) into intermediates, so the
     residual set is larger than the three visible statements *)
  Alcotest.(check int) "residual tgds" 6
    (List.length plan.Shard.Partition.residual);
  let report = Shard.Partition.report plan in
  Alcotest.(check bool) "report names the broken group-by" true
    (let needle = "group-by drops the shard key" in
     let n = String.length needle and m = String.length report in
     let rec scan i =
       i + n <= m && (String.sub report i n = needle || scan (i + 1))
     in
     scan 0)

let test_plan_explicit_bad_key () =
  let mapping = overview_mapping () in
  match Shard.Partition.make ~key:"nope" ~shards:2 mapping with
  | Error msg ->
      Alcotest.(check bool) "names the key" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "bogus key accepted"

(* --- the split: partitioned relations shatter into a disjoint union --- *)

let test_split_disjoint_union () =
  let mapping = overview_mapping () in
  let plan =
    match Shard.Partition.make ~key:"r" ~shards:3 mapping with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan failed: %s" e
  in
  let regions = [ "north"; "south"; "east"; "west"; "center" ] in
  let source =
    X.Instance.of_registry (overview_registry ~years:1 ~regions ())
  in
  let parts = Shard.Partition.split plan source in
  Alcotest.(check int) "one instance per shard" 3 (Array.length parts);
  List.iter
    (fun rel ->
      let total = X.Instance.cardinality source rel in
      let sum =
        Array.fold_left (fun a p -> a + X.Instance.cardinality p rel) 0 parts
      in
      Alcotest.(check int) (rel ^ " cardinalities add up") total sum;
      (* disjoint + union = the shards' sorted fact lists merge back to
         exactly the source's *)
      let merged =
        List.sort_uniq compare
          (Array.fold_left
             (fun acc p -> X.Instance.facts p rel @ acc)
             [] parts)
      in
      Alcotest.(check int)
        (rel ^ " union is exact and disjoint")
        total (List.length merged))
    [ "PDR"; "RGDPPC" ];
  (* every key value sits in exactly one shard: each shard's region set
     must be disjoint from the others' *)
  let region_of fact = fact.(1) in
  let shard_regions =
    Array.map
      (fun p ->
        List.sort_uniq Value.compare
          (List.map region_of (X.Instance.facts p "PDR")))
      parts
  in
  let all = Array.to_list shard_regions |> List.concat in
  Alcotest.(check int) "regions never straddle shards"
    (List.length regions)
    (List.length all)

(* --- sharded == unsharded --- *)

let facts_equal f1 f2 =
  List.length f1 = List.length f2
  && List.for_all2
       (fun a b ->
         Array.length a = Array.length b && Array.for_all2 Value.equal a b)
       f1 f2

let check_same_solution what mapping reg ~shards ?key ?range () =
  let run ~shards =
    Shard.Driver.run ~shards ?key ?range mapping (X.Instance.of_registry reg)
  in
  match (run ~shards:1, run ~shards) with
  | Ok (j1, _), Ok (j2, _) ->
      List.iter
        (fun (s : Schema.t) ->
          let name = s.Schema.name in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s facts identical" what name)
            true
            (facts_equal (X.Instance.facts j1 name) (X.Instance.facts j2 name)))
        mapping.M.Mapping.target
  | Error e1, Error e2 ->
      Alcotest.(check string) (what ^ ": same error") e1 e2
  | Ok _, Error e -> Alcotest.failf "%s: sharded failed, unsharded ok: %s" what e
  | Error e, Ok _ -> Alcotest.failf "%s: unsharded failed, sharded ok: %s" what e

let test_sharded_matches_unsharded () =
  let mapping = overview_mapping () in
  let reg =
    overview_registry ~years:2
      ~regions:[ "north"; "south"; "east"; "west"; "center"; "isles" ]
      ()
  in
  check_same_solution "auto key, hash" mapping reg ~shards:4 ();
  check_same_solution "explicit r, hash" mapping reg ~shards:3 ~key:"r" ();
  check_same_solution "explicit r, range" mapping reg ~shards:3 ~key:"r"
    ~range:true ();
  (* "q" is a poor key (PQR replicates) but must still be correct *)
  check_same_solution "explicit q, hash" mapping reg ~shards:2 ~key:"q" ();
  (* more shards than key values: some shards are empty *)
  check_same_solution "more shards than regions" mapping reg ~shards:16 ()

let test_sharded_bad_key_errors () =
  let mapping = overview_mapping () in
  let reg = overview_registry () in
  match
    Shard.Driver.run ~shards:2 ~key:"nope" mapping
      (X.Instance.of_registry reg)
  with
  | Error msg ->
      Alcotest.(check bool) "mentions sharding" true
        (String.length msg >= 13 && String.sub msg 0 13 = "sharded chase")
  | Ok _ -> Alcotest.fail "bogus explicit key accepted"

(* --- deferred egds: a violation across shards fires after the merge,
   with the unsharded run's exact message --- *)

let test_sharded_egd_parity () =
  let schema_s =
    Schema.make ~name:"S" ~dims:[ ("r", Domain.String); ("x", Domain.Int) ] ()
  in
  let schema_t = Schema.make ~name:"T" ~dims:[ ("x", Domain.Int) ] () in
  let bad_tgd =
    M.Tgd.Tuple_level
      {
        lhs = [ M.Tgd.atom "S" [ M.Term.Var "r"; M.Term.Var "x"; M.Term.Var "m" ] ];
        rhs = M.Tgd.atom "T" [ M.Term.Var "x"; M.Term.Var "m" ];
      }
  in
  let mapping =
    {
      M.Mapping.source = [ schema_s ];
      target = [ schema_s; schema_t ];
      st_tgds = [];
      t_tgds = [ bad_tgd ];
      egds = [ M.Egd.of_schema schema_t ];
    }
  in
  (* the plan keeps the tgd local but marks T merged: the projection
     drops the key, so its egd must wait for the merge *)
  (match Shard.Partition.make ~key:"r" ~shards:3 mapping with
  | Error e -> Alcotest.failf "plan failed: %s" e
  | Ok plan ->
      Alcotest.(check int) "tgd stays local" 1
        (List.length plan.Shard.Partition.local);
      Alcotest.(check string) "T is merged-only" "merged"
        (Shard.Partition.status_to_string
           (List.assoc "T" plan.Shard.Partition.status)));
  let build () =
    let inst = X.Instance.create () in
    X.Instance.add_relation inst schema_s;
    (* same x from several regions, conflicting measures: each fact may
       land in a different shard, so no shard sees the conflict alone *)
    List.iteri
      (fun i r ->
        ignore
          (X.Instance.insert inst "S"
             [| vs r; vi 1; vf (10. *. float_of_int (i + 1)) |]))
      [ "a"; "b"; "c"; "d" ];
    inst
  in
  match
    ( X.Chase.run mapping (build ()),
      Shard.Driver.run ~shards:3 ~key:"r" mapping (build ()) )
  with
  | Error e1, Error e2 ->
      Alcotest.(check string) "identical egd error" e1 e2
  | Ok _, _ -> Alcotest.fail "unsharded run missed the egd violation"
  | _, Ok _ -> Alcotest.fail "sharded run missed the egd violation"

(* --- the property: chase ~shards:3 == chase ~shards:1 --- *)

let qcheck_count =
  Helpers.qcheck_count ~var:"EXL_SHARD_QCHECK_COUNT" ~default:30

let prop_sharded_matches_unsharded =
  QCheck.Test.make ~count:qcheck_count
    ~name:"chase ~shards:3 == unsharded chase on random programs"
    Gen.arb_seed (fun seed ->
      let src, reg = Gen.program_of_seed seed in
      match Exl.Program.load src with
      | Error e ->
          QCheck.Test.fail_reportf "generated program does not check: %s\n%s"
            (Exl.Errors.to_string e) src
      | Ok checked -> (
          let { M.Generate.mapping; _ } =
            check_ok (M.Generate.of_checked checked)
          in
          match
            ( X.Chase.run mapping (X.Instance.of_registry reg),
              Shard.Driver.run ~shards:3 mapping (X.Instance.of_registry reg) )
          with
          | Ok (j1, _), Ok (j2, _) ->
              List.iter
                (fun (s : Schema.t) ->
                  let name = s.Schema.name in
                  if
                    not
                      (facts_equal
                         (X.Instance.facts j1 name)
                         (X.Instance.facts j2 name))
                  then
                    QCheck.Test.fail_reportf "relation %s differs on\n%s" name
                      src)
                mapping.M.Mapping.target;
              true
          | Error _, Error _ ->
              (* both fail: tgd errors may surface in a different order
                 (per-shard tasks race to the first error), so message
                 equality is not required — only the verdict is *)
              true
          | Ok _, Error e ->
              QCheck.Test.fail_reportf "sharded failed, unsharded passed: %s\n%s"
                e src
          | Error e, Ok _ ->
              QCheck.Test.fail_reportf "unsharded failed, sharded passed: %s\n%s"
                e src))

let suite =
  [
    ("plan: overview picks r, splits local/residual", `Quick, test_plan_overview);
    ("plan: explicit unknown key is rejected", `Quick, test_plan_explicit_bad_key);
    ("split: partitioned relations form a disjoint union", `Quick, test_split_disjoint_union);
    ("chase: sharded == unsharded on the overview", `Quick, test_sharded_matches_unsharded);
    ("chase: explicit bad key errors out", `Quick, test_sharded_bad_key_errors);
    ("chase: cross-shard egd violation caught after merge", `Quick, test_sharded_egd_parity);
    QCheck_alcotest.to_alcotest prop_sharded_matches_unsharded;
  ]
