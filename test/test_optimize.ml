(* exl-opt: containment decisions, certified rewrites, the fusion
   regression the cross-check exists for, and the end-to-end
   semantics-preservation property. *)
open Matrix
module M = Mappings
module X = Exchange
module A = Analysis
module C = A.Containment
module O = A.Optimize
module Term = M.Term
module Tgd = M.Tgd
open Helpers

let quarter = Domain.Period (Some Calendar.Quarter)

let ok_s = function
  | Ok v -> v
  | Error (e : string) -> Alcotest.failf "unexpected error: %s" e

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- containment decisions ------------------------------------------- *)

let test_subsumes () =
  let general = tl [ atom "A" [ var "q"; var "m" ] ] (atom "B" [ var "q"; var "m" ]) in
  let specific =
    tl
      [ atom "A" [ var "q"; var "m" ]; atom "C" [ var "q"; var "x" ] ]
      (atom "B" [ var "q"; var "m" ])
  in
  (* general subsumes specific, but not the other way around: C has no
     image in general's body *)
  Alcotest.(check bool) "an extra atom over another relation breaks equivalence" true
    (C.equivalent general specific = None);
  (* an extra atom over the same relation folds back onto the first *)
  let self_join =
    tl
      [ atom "A" [ var "q"; var "m" ]; atom "A" [ var "q2"; var "m2" ] ]
      (atom "B" [ var "q"; var "m" ])
  in
  Alcotest.(check bool) "a redundant self-join is equivalent" true
    (C.equivalent general self_join <> None);
  Alcotest.(check bool) "another target is not equivalent" true
    (C.equivalent general (tl [ atom "A" [ var "q"; var "m" ] ] (atom "B2" [ var "q"; var "m" ]))
    = None);
  (* alpha-renaming: mutual subsumption *)
  let renamed = tl [ atom "A" [ var "t"; var "y" ] ] (atom "B" [ var "t"; var "y" ]) in
  Alcotest.(check bool) "alpha-equivalent" true (C.equivalent general renamed <> None);
  (* shift sugar on one side must not block the match *)
  let sugar =
    tl [ atom "A" [ Term.Shifted (var "q", 1); var "m" ] ] (atom "B" [ var "q"; var "m" ])
  in
  let plain =
    tl
      [ atom "A" [ Term.Binapp (Ops.Binop.Add, var "q", Term.Const (Value.Float 1.)); var "m" ] ]
      (atom "B" [ var "q"; var "m" ])
  in
  Alcotest.(check bool) "shift sugar normalized" true (C.equivalent sugar plain <> None)

let test_redundant_atom () =
  let head = atom "B" [ var "q"; var "m" ] in
  let a1 = atom "A" [ var "q"; var "m" ] in
  let a2 = atom "A" [ var "q2"; var "m2" ] in
  (match C.redundant_atom ~head ~body:[ a1; a2 ] a2 with
  | Some (onto, _) -> Alcotest.(check string) "folds onto the used atom" "A" onto.Tgd.rel
  | None -> Alcotest.fail "unused atom should fold");
  (* not redundant when the head uses its variables *)
  let head2 = atom "B" [ var "q"; Term.Binapp (Ops.Binop.Add, var "m", var "m2") ] in
  Alcotest.(check bool) "head use blocks folding" true
    (C.redundant_atom ~head:head2 ~body:[ a1; a2 ] a2 = None)

let test_mergeable_atoms () =
  let a1 = atom "A" [ var "q"; var "m1" ] in
  let a2 = atom "A" [ var "q"; var "m2" ] in
  (match C.mergeable_atoms ~body:[ a1; a2 ] with
  | Some (_, _, dropped_var, kept_var) ->
      Alcotest.(check (list string)) "measure vars merged" [ "m1"; "m2" ]
        (List.sort compare [ dropped_var; kept_var ])
  | None -> Alcotest.fail "same-grid atoms should merge");
  (* different dimension terms: no egd justification *)
  let a3 = atom "A" [ Term.Shifted (var "q", 1); var "m2" ] in
  Alcotest.(check bool) "shifted grid does not merge" true
    (C.mergeable_atoms ~body:[ a1; a3 ] = None)

let test_fd_determines () =
  (* the paper's tgd (5): measure determined by the head dimension *)
  let body =
    [
      atom "GDPT" [ var "q"; var "m1" ];
      atom "GDPT" [ Term.Shifted (var "q", -1); var "m2" ];
    ]
  in
  let head = atom "PCHNG" [ var "q"; Term.Binapp (Ops.Binop.Sub, var "m1", var "m2") ] in
  (match C.fd_determines ~body ~head with
  | Some chain -> Alcotest.(check bool) "chain nonempty" true (chain <> [])
  | None -> Alcotest.fail "head dims determine the measure");
  (* a body atom whose dims are not reachable leaves its measure free *)
  let loose = [ atom "A" [ var "q2"; var "m" ] ] in
  Alcotest.(check bool) "unreachable dims: not determined" true
    (C.fd_determines ~body:loose ~head:(atom "B" [ var "q"; var "m" ]) = None)

let test_is_identity () =
  let id = tl [ atom "A" [ var "q"; var "m" ] ] (atom "B" [ var "q"; var "m" ]) in
  Alcotest.(check bool) "plain copy" true (C.is_identity id);
  let selection =
    tl
      [ atom "A" [ var "q"; Term.Const (Value.String "x"); var "m" ] ]
      (atom "B" [ var "q"; Term.Const (Value.String "x"); var "m" ])
  in
  Alcotest.(check bool) "constant selection is not a copy" false (C.is_identity selection);
  let diagonal =
    tl [ atom "A" [ var "q"; var "q"; var "m" ] ] (atom "B" [ var "q"; var "q"; var "m" ])
  in
  Alcotest.(check bool) "repeated variable is not a copy" false (C.is_identity diagonal);
  let shifted =
    tl [ atom "A" [ var "q"; var "m" ] ] (atom "B" [ Term.Shifted (var "q", 1); var "m" ])
  in
  Alcotest.(check bool) "shift is not a copy" false (C.is_identity shifted)

(* --- hand-built mappings for the certified rewrites ------------------- *)

let schema name dims = Schema.make ~name ~dims ()

let hand_mapping ~t_tgds ~targets =
  let a = schema "A" [ ("q", quarter); ("r", Domain.String) ] in
  {
    M.Mapping.source = [ a ];
    target = a :: targets;
    st_tgds = [];
    t_tgds;
    egds = M.Egd.of_schema a :: List.map M.Egd.of_schema targets;
  }

let instance_a () =
  let inst = X.Instance.create () in
  X.Instance.add_relation inst (schema "A" [ ("q", quarter); ("r", Domain.String) ]);
  List.iter
    (fun i ->
      List.iteri
        (fun j r ->
          ignore
            (X.Instance.insert inst "A"
               [|
                 Value.Period (Calendar.Period.quarter 2020 i);
                 Value.String r;
                 Value.Float (10. +. (3.1 *. float_of_int ((4 * i) + j)));
               |]))
        [ "north"; "south" ])
    [ 1; 2; 3; 4 ];
  inst

let chase_rel m inst rel =
  match X.Chase.run m inst with
  | Ok (j, stats) -> (X.Instance.facts j rel, stats)
  | Error e -> Alcotest.failf "chase: %s" e

let test_minimize_and_merge () =
  let b = schema "B" [ ("q", quarter); ("r", Domain.String) ] in
  (* duplicate functional atoms: A's egd forces m1 = m2 *)
  let doubled =
    tl
      [ atom "A" [ var "q"; var "r"; var "m1" ]; atom "A" [ var "q"; var "r"; var "m2" ] ]
      (atom "B" [ var "q"; var "r"; Term.Binapp (Ops.Binop.Add, var "m1", var "m2") ])
  in
  let m = hand_mapping ~t_tgds:[ doubled ] ~targets:[ b ] in
  let report = O.run ~fuse:false m in
  Alcotest.(check bool) "I303 emitted" true
    (List.exists (fun (a : O.action) -> a.O.code = "I303") report.O.actions);
  (match report.O.optimized.M.Mapping.t_tgds with
  | [ Tgd.Tuple_level { lhs = [ _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "body should shrink to one atom");
  Alcotest.(check (result unit string)) "certificates verify" (Ok ()) (O.verify report);
  let before, _ = chase_rel m (instance_a ()) "B" in
  let after, _ = chase_rel report.O.optimized (instance_a ()) "B" in
  Alcotest.(check int) "same fact count" (List.length before) (List.length after);
  List.iter2
    (fun f1 f2 -> Alcotest.(check bool) "same fact" true (f1 = f2))
    before after

(* --- the fusion regression: aggregation over a shifted operand -------- *)

let shifted_agg_source =
  {|
cube A(q: quarter, r: string);
S := sum(shift(A, 1), group by q);
|}

let shifted_agg_mapping () =
  let checked = Exl.Program.load_exn shifted_agg_source in
  let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked checked) in
  let producer = Option.get (M.Mapping.tgd_for mapping "S__1") in
  let consumer = Option.get (M.Mapping.tgd_for mapping "S") in
  (mapping, producer, consumer)

let replace_pair (m : M.Mapping.t) ~producer ~consumer fused =
  {
    m with
    M.Mapping.t_tgds =
      List.filter_map
        (fun t ->
          if t == producer then None
          else if t == consumer then Some fused
          else Some t)
        m.M.Mapping.t_tgds;
    target = List.filter (fun (s : Schema.t) -> s.Schema.name <> "S__1") m.M.Mapping.target;
    egds = List.filter (fun (e : M.Egd.t) -> e.M.Egd.relation <> "S__1") m.M.Mapping.egds;
  }

let test_fuse_step_agg_rewrites_keys () =
  let _, producer, consumer = shifted_agg_mapping () in
  match M.Fuse.fuse_step_agg ~producer ~consumer with
  | None -> Alcotest.fail "shifted producer should fuse into the aggregation"
  | Some (Tgd.Aggregation { source; group_by; _ }) ->
      Alcotest.(check string) "reads the base relation" "A" source.Tgd.rel;
      (* the group-by key must be shifted, not a plain variable *)
      Alcotest.(check bool) "group-by key rewritten" true
        (List.for_all (fun t -> not (Term.is_var t)) group_by)
  | Some _ -> Alcotest.fail "fusion of an aggregation should stay an aggregation"

let test_naive_agg_fusion_changes_semantics () =
  let m, producer, consumer = shifted_agg_mapping () in
  let correct = Option.get (M.Fuse.fuse_step_agg ~producer ~consumer) in
  (* the historical bug this PR fixes: substitute the source atom
     without rewriting the group-by keys through the unifier *)
  let naive =
    match (producer, consumer) with
    | Tgd.Tuple_level { lhs = [ p_atom ]; _ }, Tgd.Aggregation { aggr; target; _ } ->
        let q = match p_atom.Tgd.args with t :: _ -> t | [] -> assert false in
        let measure =
          match List.rev p_atom.Tgd.args with
          | Term.Var mv :: _ -> mv
          | _ -> assert false
        in
        Tgd.Aggregation { source = p_atom; group_by = [ q ]; aggr; measure; target }
    | _ -> Alcotest.fail "unexpected tgd shapes"
  in
  let reg = Registry.create () in
  Registry.add reg Registry.Elementary
    (cube_of "A"
       [ ("q", quarter); ("r", Domain.String) ]
       [
         [ vq 2020 1; vs "north"; vf 1.0 ];
         [ vq 2020 1; vs "south"; vf 2.0 ];
         [ vq 2020 2; vs "north"; vf 40.0 ];
         [ vq 2020 2; vs "south"; vf 50.0 ];
       ]);
  let run m' =
    match X.Chase.run m' (X.Instance.of_registry reg) with
    | Ok (j, _) -> X.Instance.facts j "S"
    | Error e -> Alcotest.failf "chase: %s" e
  in
  let reference = run m in
  let fused_facts = run (replace_pair m ~producer ~consumer correct) in
  let naive_facts = run (replace_pair m ~producer ~consumer naive) in
  Alcotest.(check bool) "correct fusion preserves S" true (reference = fused_facts);
  Alcotest.(check bool) "naive fusion changes S" true (reference <> naive_facts)

(* --- the overview pipeline end to end -------------------------------- *)

let test_optimize_overview () =
  let m = overview_mapping () in
  let report = O.run m in
  Alcotest.(check bool) "tgds eliminated" true
    (List.length report.O.optimized.M.Mapping.t_tgds < List.length m.M.Mapping.t_tgds);
  Alcotest.(check bool) "fusion certificates present" true
    (List.exists (fun (a : O.action) -> a.O.code = "I304") report.O.actions);
  Alcotest.(check bool) "duplicate-atom merge fired on the PCHNG chain" true
    (List.exists (fun (a : O.action) -> a.O.code = "I303") report.O.actions);
  Alcotest.(check bool) "cost estimate improves" true (report.O.est_after < report.O.est_before);
  Alcotest.(check (result unit string)) "all certificates verify" (Ok ()) (O.verify report);
  (* the optimized mapping computes the same cubes on real data *)
  let reg = overview_registry () in
  let j1 =
    match X.Chase.run m (X.Instance.of_registry reg) with
    | Ok (j, _) -> j
    | Error e -> Alcotest.failf "chase original: %s" e
  in
  let j2, stats2 =
    match X.Chase.run report.O.optimized (X.Instance.of_registry reg) with
    | Ok r -> r
    | Error e -> Alcotest.failf "chase optimized: %s" e
  in
  List.iter
    (fun name ->
      Alcotest.check cube_eq name
        (X.Instance.cube_of_relation j1 name)
        (X.Instance.cube_of_relation j2 name))
    [ "PQR"; "RGDP"; "GDP"; "GDPT"; "PCHNG" ];
  (* the laconic effect: the optimized chase emits no temporary facts *)
  Alcotest.(check int) "no non-core facts" 0 stats2.X.Chase.nulls_created

let test_nulls_created_counts_temps () =
  let m = overview_mapping () in
  let _, stats = chase_rel m (X.Instance.of_registry (overview_registry ())) "PCHNG" in
  Alcotest.(check bool) "unoptimized chase pads temporaries" true
    (stats.X.Chase.nulls_created > 0)

let test_tampered_certificate_rejected () =
  let report = O.run (overview_mapping ()) in
  let tampered =
    {
      report with
      O.actions =
        List.map
          (fun (a : O.action) ->
            match a.O.certificate with
            | O.Determination { chain } when chain <> [] ->
                { a with O.certificate = O.Determination { chain = [ "bogus" ] } }
            | _ -> a)
          report.O.actions;
    }
  in
  Alcotest.(check bool) "bogus determination chain rejected" true
    (Result.is_error (O.verify tampered));
  (* the overview's fusions are unfoldings: a wrong unifier or chain in
     any of them fails verify *)
  let tamper_unfoldings f =
    {
      report with
      O.actions =
        List.map
          (fun (a : O.action) ->
            match a.O.certificate with
            | O.Unfolding { producer; unifier; chain } ->
                let producer, unifier, chain = f (producer, unifier, chain) in
                { a with O.certificate = O.Unfolding { producer; unifier; chain } }
            | _ -> a)
          report.O.actions;
    }
  in
  Alcotest.(check bool) "the report carries unfoldings" true
    (List.exists
       (fun (a : O.action) -> match a.O.certificate with O.Unfolding _ -> true | _ -> false)
       report.O.actions);
  Alcotest.(check bool) "wrong unifier rejected" true
    (Result.is_error
       (O.verify
          (tamper_unfoldings (fun (producer, unifier, chain) ->
               (producer, ("q", Term.Var "q0") :: unifier, chain)))));
  Alcotest.(check bool) "wrong chain rejected" true
    (Result.is_error
       (O.verify
          (tamper_unfoldings (fun (producer, unifier, chain) ->
               (producer, unifier, List.rev chain)))));
  (* and so does a producer left writing its temporary *)
  let producer =
    List.find_map
      (fun (a : O.action) ->
        match a.O.certificate with O.Unfolding { producer; _ } -> Some producer | _ -> None)
      report.O.actions
  in
  let optimized = report.O.optimized in
  Alcotest.(check bool) "temporary still written rejected" true
    (Result.is_error
       (O.verify
          {
            report with
            O.optimized =
              {
                optimized with
                M.Mapping.t_tgds = Option.get producer :: optimized.M.Mapping.t_tgds;
              };
          }));
  (* an aggregation unfolding: σ on the group-by variable and the key
     chain [q ← f1_q + 1] *)
  let m, _, _ = shifted_agg_mapping () in
  let report = O.run m in
  let tamper f =
    {
      report with
      O.actions =
        List.map
          (fun (a : O.action) ->
            match (a.O.certificate, a.O.before) with
            | O.Unfolding { producer; unifier; chain }, Some (Tgd.Aggregation _) ->
                let unifier, chain = f (unifier, chain) in
                { a with O.certificate = O.Unfolding { producer; unifier; chain } }
            | _ -> a)
          report.O.actions;
    }
  in
  Alcotest.(check (result unit string)) "the aggregation unfolding verifies" (Ok ())
    (O.verify (tamper Fun.id));
  Alcotest.(check bool) "aggregation: wrong σ rejected" true
    (Result.is_error
       (O.verify
          (tamper (fun (unifier, chain) ->
               (List.map (fun (v, _) -> (v, Term.Var "f1_q")) unifier, chain)))));
  Alcotest.(check bool) "aggregation: wrong key chain rejected" true
    (Result.is_error
       (O.verify (tamper (fun (unifier, chain) -> (unifier, List.map (fun c -> c ^ " - 1") chain)))))

(* [verify]'s verdict and the chases it made. *)
let verify_chases report =
  let c = Obs.create ~spans:false () in
  let verdict = Obs.with_collector c (fun () -> O.verify report) in
  (verdict, Obs.Metrics.counter_value c.Obs.metrics "chase.runs")

let verified_without_chase = Alcotest.(pair (result unit string) int)

(* [verify] replays the action log onto the original mapping: a log
   that does not derive the optimized mapping is rejected with no
   chase, by a message naming the mismatch. *)
let test_replay_rejects_tampering () =
  let report = O.run (overview_mapping ()) in
  Alcotest.check verified_without_chase "the overview verifies with no chase" (Ok (), 0)
    (verify_chases report);
  let rejected what ~needle report =
    match verify_chases report with
    | Ok (), _ -> Alcotest.failf "%s: verified" what
    | Error msg, chases ->
        Alcotest.(check bool) (what ^ ": " ^ msg) true (contains msg needle);
        Alcotest.(check int) (what ^ ": chase.runs") 0 chases
  in
  (* one optimized tgd's head measure edited *)
  let optimized = report.O.optimized in
  let edited =
    List.find_map
      (function
        | Tgd.Tuple_level { lhs; rhs } -> (
            match List.rev rhs.Tgd.args with
            | measure :: dims ->
                let measure = Term.Binapp (Ops.Binop.Add, measure, num 0.5) in
                let args = List.rev (measure :: dims) in
                Some (Tgd.Tuple_level { lhs; rhs = { rhs with Tgd.args } })
            | [] -> None)
        | _ -> None)
      optimized.M.Mapping.t_tgds
    |> Option.get
  in
  rejected "head measure edited" ~needle:("the optimized tgd " ^ Tgd.to_string edited)
    {
      report with
      O.optimized =
        {
          optimized with
          M.Mapping.t_tgds =
            List.map
              (fun tgd ->
                if Tgd.target_relation tgd = Tgd.target_relation edited then edited else tgd)
              optimized.M.Mapping.t_tgds;
        };
    };
  (* one action dropped from the log *)
  let without (dropped : O.action) =
    { report with O.actions = List.filter (fun a -> a != dropped) report.O.actions }
  in
  let first code = List.find (fun (a : O.action) -> a.O.code = code) report.O.actions in
  let merge = first "I303" in
  rejected "I303 removed" ~needle:("I304: the fusion into " ^ merge.O.target) (without merge);
  let discharge = first "I306" in
  rejected "I306 removed"
    ~needle:
      (Printf.sprintf
         "replay: the optimized mapping drops the egd of %s, which no I306 action discharges"
         discharge.O.target)
    (without discharge);
  (* an I302 whose recorded result swaps a two-atom body [A ∧ C] for an
     atom [B] it never held, witnessed by folding [B] onto itself: the
     log replays to an optimized mapping edited the same way, so only
     the fold's certificate check can catch it *)
  let original = report.O.original in
  let before, lhs, rhs =
    List.find_map
      (function
        | Tgd.Tuple_level { lhs = [ _; _ ] as lhs; rhs } as tgd -> Some (tgd, lhs, rhs)
        | _ -> None)
      original.M.Mapping.t_tgds
    |> Option.get
  in
  let b = { (List.hd lhs) with Tgd.rel = "B" } in
  let after = Tgd.Tuple_level { lhs = [ b ]; rhs } in
  rejected "I302 result edited"
    ~needle:
      (Printf.sprintf "I302: the recorded result is not the tgd for %s without %s"
         rhs.Tgd.rel (Tgd.atom_to_string b))
    {
      report with
      O.optimized =
        {
          original with
          M.Mapping.t_tgds =
            List.map (fun tgd -> if tgd == before then after else tgd) original.M.Mapping.t_tgds;
        };
      actions =
        [
          {
            O.code = "I302";
            target = rhs.Tgd.rel;
            detail = "forged";
            before = Some before;
            after = Some after;
            certificate = O.Fold_witness { dropped = b; onto = b; hom = [] };
          };
        ];
    }

(* A chased fusion is cone-checked again on the mapping the replay
   reached: under [first] the aggregation fusion of
   [ordered_fusion_program] is a [Fusion_equivalence].  Its tgd altered
   to group by [1 * t] for each key [t] passes the certificate's
   replay, which compares fused tgds up to renaming and neutral
   arithmetic, and the log's replay; but [1 * t] is undefined on a
   period, so the cone check rejects it. *)
let test_chased_fusion_cone_checked () =
  let { M.Generate.mapping; _ } =
    check_ok (M.Generate.of_checked (Exl.Program.load_exn ordered_fusion_program))
  in
  let report = O.run mapping in
  Alcotest.check verified_without_chase "verified: a base chase and the cone" (Ok (), 2)
    (verify_chases report);
  let chased, altered =
    List.find_map
      (fun (a : O.action) ->
        match (a.O.certificate, a.O.after) with
        | O.Fusion_equivalence _, Some (Tgd.Aggregation g as fused) ->
            let times_one t = Term.Binapp (Ops.Binop.Mul, Term.Const (Value.Int 1), t) in
            Some (fused, Tgd.Aggregation { g with group_by = List.map times_one g.group_by })
        | _ -> None)
      report.O.actions
    |> Option.get
  in
  let alter tgd = if Tgd.equal tgd chased then altered else tgd in
  let tampered =
    {
      report with
      O.actions =
        List.map
          (fun (a : O.action) -> { a with O.after = Option.map alter a.O.after })
          report.O.actions;
      optimized =
        {
          report.O.optimized with
          M.Mapping.t_tgds = List.map alter report.O.optimized.M.Mapping.t_tgds;
        };
    }
  in
  match verify_chases tampered with
  | Ok (), _ -> Alcotest.fail "the altered fusion verified"
  | Error msg, chases ->
      Alcotest.(check bool) ("rejected on the critical instance: " ^ msg) true
        (contains msg "I304: fusion of S__1: optimized mapping failed on critical instance");
      Alcotest.(check bool) "through the cone check" true (chases > 0)

let test_optimizer_report_json () =
  let report = O.run (overview_mapping ()) in
  let json = O.report_to_json report in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains json needle))
    [
      {|"actions":[|};
      {|"kind":"unfolding"|};
      {|"unifier":"{q ↦ f1_q + 1}"|};
      {|"est_matches_before"|};
      {|"tgds_after"|};
    ]

(* Fusion names depend only on the mapping: a second run in the same
   process prints the same report. *)
let test_optimizer_report_deterministic () =
  let json () = O.report_to_json (O.run (overview_mapping ())) in
  let first = json () in
  Alcotest.(check string) "second run, same report" first (json ())

(* A consumer that already carries fused names ([f1_q]) makes the
   producer's variables start one index higher, so none is captured. *)
let test_fusion_names_never_capture () =
  let v x = Term.Var x in
  let producer =
    Tgd.Tuple_level
      {
        lhs = [ Tgd.atom "A" [ v "q"; v "m" ] ];
        rhs = Tgd.atom "T__1" [ Term.Shifted (v "q", 1); v "m" ];
      }
  in
  let consumer =
    Tgd.Tuple_level
      {
        lhs = [ Tgd.atom "T__1" [ v "f1_q"; v "m1" ]; Tgd.atom "B" [ v "f1_q"; v "m2" ] ];
        rhs =
          Tgd.atom "OUT" [ v "f1_q"; Term.Binapp (Ops.Binop.Sub, v "m1", v "m2") ];
      }
  in
  match M.Fuse.fuse_step ~producer ~consumer with
  | Some fused ->
      Alcotest.(check string) "renamed apart"
        "B(f2_q + 1, m2) ∧ A(f2_q, m1) → OUT(f2_q + 1, m1 - m2)"
        (Tgd.to_string fused)
  | None -> Alcotest.fail "expected a fused tgd"

(* --- fusion checks: the cone check against the full re-chase ----------- *)

(* A wrong variant of a fusion candidate: every tgd it does not share
   with [m] is changed.  A tuple-level one adds 0.5 to its head
   measure; an aggregation drops the shifts of its group-by terms (the
   [fusion:unsafe] bug) or, when none is shifted, swaps its aggregate. *)
let perturb (m : M.Mapping.t) (next : M.Mapping.t) =
  let unshift (t : Term.t) =
    match t with
    | Term.Shifted (t, _)
    | Term.Binapp ((Ops.Binop.Add | Ops.Binop.Sub), (Term.Var _ as t), Term.Const _) ->
        t
    | t -> t
  in
  let wrong tgd =
    if List.memq tgd m.M.Mapping.t_tgds then tgd
    else
      match tgd with
      | Tgd.Tuple_level { lhs; rhs } -> (
          match List.rev rhs.Tgd.args with
          | measure :: dims ->
              let measure = Term.Binapp (Ops.Binop.Add, measure, Term.Const (Value.Float 0.5)) in
              Tgd.Tuple_level { lhs; rhs = { rhs with Tgd.args = List.rev (measure :: dims) } }
          | [] -> tgd)
      | Tgd.Aggregation a ->
          let group_by = List.map unshift a.group_by in
          if List.equal Term.equal group_by a.group_by then
            Tgd.Aggregation
              { a with aggr = (if a.aggr = Stats.Aggregate.Sum then Stats.Aggregate.Max else Sum) }
          else Tgd.Aggregation { a with group_by }
      | _ -> tgd
  in
  { next with M.Mapping.t_tgds = List.map wrong next.M.Mapping.t_tgds }

let verdict_to_string = function
  | Ok n -> Printf.sprintf "Ok %d" n
  | Error e -> "Error " ^ e

let proof_to_string = function
  | Ok (O.Unfolded _) -> "Ok unfolded"
  | Ok (O.Chased n) -> Printf.sprintf "Ok %d" n
  | Error e -> "Error " ^ e

(* The cone check alone, as [equivalent_on_critical] reports it. *)
let cone_check base next =
  match O.check_fusion ~unfold:false base next with
  | Ok (O.Chased n), committed -> (Ok n, committed)
  | Ok (O.Unfolded _), _ -> Alcotest.fail "an unfolding without ~unfold"
  | (Error _ as e), committed -> (e, committed)

let unfolded = function Ok (O.Unfolded _) -> true | _ -> false

(* Walk the fusion pass from [m]: check every fusion candidate of the
   current mapping, and a perturbed variant of it, as the pass does
   (unfolding first), with the cone check alone and with the full
   two-sided re-chase; then commit the first accepted candidate
   (continuing from the base the commit hands back) and repeat.  The
   cone and full checks must agree; an unfolding must be a candidate
   both accept, and never a perturbed variant; a candidate not unfolded
   gets the cone check's verdict.  Returns the number of candidates
   checked, or the first one that breaks a rule. *)
let walk_fusions (m : M.Mapping.t) =
  let rec walk base m checked =
    let outcomes =
      List.concat_map
        (fun next ->
          List.map
            (fun (next, perturbed) ->
              let proof, committed = O.check_fusion base next in
              let cone = fst (cone_check base next) in
              (next, perturbed, proof, committed, cone, O.equivalent_on_critical m next))
            [ (next, false); (perturb m next, true) ])
        (O.fusion_candidates m)
    in
    let checked = checked + List.length outcomes in
    let broken (_, perturbed, proof, _, cone, full) =
      cone <> full
      ||
      if unfolded proof then perturbed || Result.is_error cone || Result.is_error full
      else proof_to_string proof <> verdict_to_string cone
    in
    match List.find_opt broken outcomes with
    | Some (next, _, proof, _, cone, full) -> Error (next, proof, cone, full)
    | None -> (
        match List.find_opt (fun (_, _, proof, _, _, _) -> Result.is_ok proof) outcomes with
        | Some (next, _, _, committed, _, _) -> walk committed next checked
        | None -> Ok checked)
  in
  walk (O.fusion_base m) m 0

let walk_or_fail what m =
  match walk_fusions m with
  | Ok checked -> checked
  | Error (next, proof, cone, full) ->
      Alcotest.failf "%s: fusion check %s, cone check %s, full check %s on\n%s" what
        (proof_to_string proof) (verdict_to_string cone) (verdict_to_string full)
        (M.Mapping.to_string next)

(* A fused join of a relation with its own shift, the shape of the
   overview's PCHNG and the sample's GROWTH: two body atoms over one
   relation. *)
let shift_join = function
  | Tgd.Tuple_level { lhs; _ } ->
      List.exists
        (fun (a : Tgd.atom) ->
          List.exists (fun (b : Tgd.atom) -> a != b && a.Tgd.rel = b.Tgd.rel) lhs)
        lhs
  | _ -> false

(* The I304 actions of one optimizer run that fuse into a shift join,
   after checking that each is proved by unfolding. *)
let shift_join_unfoldings what m =
  List.filter
    (fun (a : O.action) ->
      a.O.code = "I304"
      && Option.fold ~none:false ~some:shift_join a.O.after
      &&
      match a.O.certificate with
      | O.Unfolding _ -> true
      | _ -> Alcotest.failf "%s: the shift join into %s is not unfolded" what a.O.target)
    (O.run m).O.actions
  |> List.length

(* The overview's mapping and every example's, by path. *)
let example_mappings () =
  let dir = examples_dir () in
  ("overview", overview_mapping ())
  :: List.filter_map
       (fun file ->
         if not (Filename.check_suffix file ".exl") then None
         else
           let path = Filename.concat dir file in
           let program =
             Exl.Program.load_exn (In_channel.with_open_bin path In_channel.input_all)
           in
           let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked program) in
           Some (path, mapping))
       (List.sort compare (Array.to_list (Sys.readdir dir)))

let test_cone_check_on_examples () =
  let programs = example_mappings () in
  let checked =
    List.fold_left (fun acc (what, m) -> acc + walk_or_fail what m) 0 programs
  in
  Alcotest.(check bool) "candidates were checked" true (checked >= 16);
  Alcotest.(check (list (pair string int)))
    "shift joins proved by unfolding, per program"
    [
      ("overview", 3);
      ("monetary_aggregates.exl", 2);
      ("multi_target_dispatch.exl", 3);
      ("quickstart.exl", 3);
      ("sdmx_dissemination.exl", 2);
      ("seasonal_tourism.exl", 2);
    ]
    (List.map (fun (what, m) -> (Filename.basename what, shift_join_unfoldings what m)) programs)

(* [equivalent_on_critical], the re-chase [verify] no longer runs,
   stays the oracle: every example's optimization verifies with no
   chase and agrees with its original on the critical instance. *)
let test_examples_verify_by_replay () =
  List.iter
    (fun (what, m) ->
      let report = O.run m in
      Alcotest.check verified_without_chase (what ^ ": verified with no chase") (Ok (), 0)
        (verify_chases report);
      match O.equivalent_on_critical m report.O.optimized with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: verified, but the re-chase finds %s" what e)
    (example_mappings ())

(* The [tgds] attribute of every chase.run span [f] opens. *)
let chased_tgd_counts f =
  let c = Obs.create () in
  let v = Obs.with_collector c f in
  ( v,
    List.filter_map
      (fun (s : Obs.Trace.span) ->
        if s.Obs.Trace.name = "chase.run" then
          Some (int_of_string (List.assoc "tgds" s.Obs.Trace.attrs))
        else None)
      (Obs.Trace.spans c.Obs.trace) )

(* [E] reads A only; [P] produces the temporary S__1 that [C] consumes;
   [D] reads C's target. *)
let cone_fixture () =
  let dims = [ ("q", quarter); ("r", Domain.String) ] in
  let s1 = schema "S__1" dims and s = schema "S" dims in
  let u = schema "U" dims and v = schema "V" dims in
  let qrm q m = [ q; var "r"; m ] in
  let scaled k x = Term.Binapp (Ops.Binop.Mul, x, Term.Const (Value.Float k)) in
  let plus k x = Term.Binapp (Ops.Binop.Add, x, Term.Const (Value.Float k)) in
  let e = tl [ atom "A" (qrm (var "q") (var "m")) ] (atom "V" (qrm (var "q") (plus (-1.) (var "m")))) in
  let p =
    tl [ atom "A" (qrm (var "q") (var "m")) ] (atom "S__1" (qrm (Term.Shifted (var "q", 1)) (var "m")))
  in
  let c = tl [ atom "S__1" (qrm (var "q") (var "m")) ] (atom "S" (qrm (var "q") (scaled 2. (var "m")))) in
  let reader () =
    tl [ atom "S" (qrm (var "q") (var "m")) ] (atom "U" (qrm (var "q") (plus 1. (var "m"))))
  in
  let d = reader () in
  let m = hand_mapping ~t_tgds:[ e; p; c; d ] ~targets:[ s1; s; u; v ] in
  (* a fused consumer shifting A by [k], with head dimension [r] *)
  let fused ?(r = var "r") k =
    tl
      [ atom "A" (qrm (var "q") (var "m")) ]
      (atom "S" [ Term.Shifted (var "q", k); r; scaled 2. (var "m") ])
  in
  let next ?(d = d) fused =
    {
      m with
      M.Mapping.t_tgds = [ e; fused; d ];
      target = List.filter (fun (x : Schema.t) -> x.Schema.name <> "S__1") m.M.Mapping.target;
      egds = List.filter (fun (x : M.Egd.t) -> x.M.Egd.relation <> "S__1") m.M.Mapping.egds;
    }
  in
  (m, fused, next, reader)

let test_cone_rejects_wrong_fusions () =
  let m, fused, next, _ = cone_fixture () in
  (* the mutant: the producer's shift by 1 became 2 *)
  let bad = next (fused 2) in
  let full = O.equivalent_on_critical m bad in
  (match full with
  | Error msg ->
      Alcotest.(check bool) "full check reports differing solutions" true
        (contains msg "solutions differ")
  | Ok _ -> Alcotest.fail "the full check accepts a wrong fusion");
  let (proof, _), chased = chased_tgd_counts (fun () -> O.check_fusion (O.fusion_base m) bad) in
  Alcotest.(check string) "not unfolded, same rejection as the full check"
    (verdict_to_string full) (proof_to_string proof);
  (* the base chases all four tgds; the candidate only the fused
     consumer and its downstream reader, not the unaffected V *)
  Alcotest.(check (list int)) "base chase, then the cone" [ 4; 2 ] chased;
  let good = next (fused 1) in
  Alcotest.(check string) "the correct fusion is accepted, same facts compared"
    (verdict_to_string (O.equivalent_on_critical m good))
    (verdict_to_string (fst (cone_check (O.fusion_base m) good)));
  (* a fused body the chase cannot run: q occurs only under a shift *)
  let stuck =
    next
      (tl
         [ atom "A" [ Term.Shifted (var "q", 1); var "r"; var "m" ] ]
         (atom "S" [ var "q"; var "r"; var "m" ]))
  in
  let full = O.equivalent_on_critical m stuck in
  Alcotest.(check bool) "full check reports the chase failure" true
    (contains (verdict_to_string full) "optimized mapping failed");
  Alcotest.(check string) "not unfolded, same chase failure from the cone check"
    (verdict_to_string full)
    (proof_to_string (fst (O.check_fusion (O.fusion_base m) stuck)))

let test_commit_refreshes_base_on_new_constants () =
  let m, fused, next, reader = cone_fixture () in
  (* each commit is followed by a candidate whose only new tgd is a
     rebuilt reader of S, so its cone is that one tgd *)
  (* same constants: the committed solution is the next base *)
  let fused1 = fused 1 in
  let next1 = next fused1 in
  let v1, committed = cone_check (O.fusion_base m) next1 in
  Alcotest.(check string) "commit accepted" (verdict_to_string (O.equivalent_on_critical m next1))
    (verdict_to_string v1);
  let next2 = next ~d:(reader ()) fused1 in
  let (v2, _), chased = chased_tgd_counts (fun () -> cone_check committed next2) in
  Alcotest.(check (list int)) "no base re-chase, only the cone" [ 1 ] chased;
  Alcotest.(check string) "same verdict as the full check"
    (verdict_to_string (O.equivalent_on_critical next1 next2)) (verdict_to_string v2);
  (* a commit adding the constant "zz" (dead under coalesce, so still
     equivalent) grows the critical instance: the next check must chase
     a fresh base over it *)
  let fused1 = fused ~r:(Term.Coalesce (var "r", Term.Const (Value.String "zz"))) 1 in
  let next1 = next fused1 in
  let v1, committed = cone_check (O.fusion_base m) next1 in
  Alcotest.(check string) "constant-changing commit accepted"
    (verdict_to_string (O.equivalent_on_critical m next1)) (verdict_to_string v1);
  let next2 = next ~d:(reader ()) fused1 in
  let (v2, _), chased = chased_tgd_counts (fun () -> cone_check committed next2) in
  Alcotest.(check (list int)) "fresh base chase, then the cone" [ 3; 1 ] chased;
  let full = O.equivalent_on_critical next1 next2 in
  Alcotest.(check string) "same facts compared as the full check" (verdict_to_string full)
    (verdict_to_string v2);
  Alcotest.(check bool) "a stale base would have compared fewer facts" true
    (full <> O.equivalent_on_critical m next2)

(* --- unfolding: the side conditions ------------------------------------ *)

(* The one fusion candidate of a producer [p] of the temporary T__1 and
   its one consumer [c], writing S; T__1 and S have dimensions [dims]. *)
let unfolding_fixture ~dims p c =
  let m = hand_mapping ~t_tgds:[ p; c ] ~targets:[ schema "T__1" dims; schema "S" dims ] in
  match O.fusion_candidates m with
  | [ next ] -> (m, next)
  | l -> Alcotest.failf "expected one fusion candidate, got %d" (List.length l)

(* Each fixture fails one side condition of the unfolding proof and is a
   wrong fusion: the pass must decline to unfold it and the cone check
   reject it as the full check does. *)
let test_unfolding_side_conditions () =
  let qr = [ ("q", quarter); ("r", Domain.String) ] in
  let a = atom "A" and t = atom "T__1" and s = atom "S" in
  let div x y = Term.Binapp (Ops.Binop.Div, x, y) in
  let sub x y = Term.Binapp (Ops.Binop.Sub, x, y) in
  List.iter
    (fun (what, dims, p, c, message) ->
      let m, next = unfolding_fixture ~dims p c in
      let full = O.equivalent_on_critical m next in
      Alcotest.(check bool) (what ^ ": " ^ message) true
        (contains (verdict_to_string full) message);
      Alcotest.(check string) (what ^ ": cone check") (verdict_to_string full)
        (verdict_to_string (fst (cone_check (O.fusion_base m) next)));
      Alcotest.(check string) (what ^ ": not unfolded") (verdict_to_string full)
        (proof_to_string (fst (O.check_fusion (O.fusion_base m) next)));
      Alcotest.(check bool) (what ^ ": no fusion in the run") false
        (List.exists (fun (x : O.action) -> x.O.code = "I304") (O.run m).O.actions))
    [
      (* T__1 holds no facts (m / 0 is undefined), yet the unfolding
         would derive S(q, r, 0) *)
      ( "partial producer term under coalesce",
        qr,
        tl
          [ a [ var "q"; var "r"; var "m" ] ]
          (t [ var "q"; var "r"; div (var "m") (sub (var "m") (var "m")) ]),
        tl
          [ t [ var "q"; var "r"; var "x" ] ]
          (s [ var "q"; var "r"; Term.Coalesce (var "x", num 0.) ]),
        "solutions differ" );
      (* T__1(q, m) drops r, so its egd fails where the unfolding has none *)
      ( "temporary not determined by the producer body",
        [ ("q", quarter) ],
        tl [ a [ var "q"; var "r"; var "m" ] ] (t [ var "q"; var "m" ]),
        tl [ t [ var "q"; var "x" ] ] (s [ var "q"; var "x" ]),
        "egd violation" );
      (* q occurs only under a shift: neither the producer nor the
         unfolding can run *)
      ( "shift-only producer body",
        qr,
        tl
          [ a [ Term.Shifted (var "q", 1); var "r"; var "m" ] ]
          (t [ var "q"; var "r"; var "m" ]),
        tl [ t [ var "q"; var "r"; var "x" ] ] (s [ var "q"; var "r"; var "x" ]),
        "not executable" );
    ]

(* The same for an aggregation consumer: each fixture fails one side
   condition of its unfolding and is a wrong fusion.  [extra] tgds write
   the relation B, which has no egd. *)
let test_agg_unfolding_side_conditions () =
  let q = [ ("q", quarter) ] in
  let qrx = [ ("q", quarter); ("r", Domain.String); ("x", Domain.Float) ] in
  let a = atom "A" and b = atom "B" and t = atom "T__1" in
  let undefined = Term.Binapp (Ops.Binop.Div, var "m", Term.Binapp (Ops.Binop.Sub, var "m", var "m")) in
  let sum_s ~group_by source = sum_tgd source ~group_by ~measure:"y" "S" in
  List.iter
    (fun (what, t_dims, extra, p, c, message) ->
      let m =
        hand_mapping
          ~t_tgds:(extra @ [ p; c ])
          ~targets:
            ((if extra = [] then [] else [ schema "B" q ])
            @ [ schema "T__1" t_dims; schema "S" q ])
      in
      let m = { m with M.Mapping.egds = List.filter (fun (e : M.Egd.t) -> e.M.Egd.relation <> "B") m.M.Mapping.egds } in
      let next =
        match O.fusion_candidates m with
        | [ next ] -> next
        | l -> Alcotest.failf "%s: expected one fusion candidate, got %d" what (List.length l)
      in
      let full = O.equivalent_on_critical m next in
      Alcotest.(check bool) (what ^ ": " ^ message) true (contains (verdict_to_string full) message);
      Alcotest.(check string) (what ^ ": cone check") (verdict_to_string full)
        (verdict_to_string (fst (cone_check (O.fusion_base m) next)));
      Alcotest.(check string) (what ^ ": not unfolded") (verdict_to_string full)
        (proof_to_string (fst (O.check_fusion (O.fusion_base m) next))))
    [
      (* T__1(q, m) drops r: its egd fails, the fused sum adds regions *)
      ( "projecting producer under sum",
        q,
        [],
        tl [ a [ var "q"; var "r"; var "m" ] ] (t [ var "q"; var "m" ]),
        sum_s ~group_by:[ var "q" ] (t [ var "q"; var "y" ]),
        "egd violation" );
      (* B holds both regions' measures per quarter, so T__1's egd
         fails where the fused sum reads B unchecked *)
      ( "non-functional body relation",
        q,
        [ tl [ a [ var "q"; var "r"; var "m" ] ] (b [ var "q"; var "m" ]) ],
        tl [ b [ var "q"; var "m" ] ] (t [ var "q"; var "m" ]),
        sum_s ~group_by:[ var "q" ] (t [ var "q"; var "y" ]),
        "egd violation" );
      (* T__1's dimension x is never defined, so T__1 and S are empty,
         but the fused sum over A does not evaluate x *)
      ( "undefined head term not forced",
        qrx,
        [],
        tl [ a [ var "q"; var "r"; var "m" ] ] (t [ var "q"; var "r"; undefined; var "m" ]),
        sum_s ~group_by:[ var "q" ] (t [ var "q"; var "r"; var "x"; var "y" ]),
        "solutions differ" );
      (* forcing it in the group-by is not enough: an undefined group-by
         term fails the fused chase, where the producer skipped the fact *)
      ( "undefined head term forced",
        qrx,
        [],
        tl [ a [ var "q"; var "r"; var "m" ] ] (t [ var "q"; var "r"; undefined; var "m" ]),
        sum_s ~group_by:[ var "x" ] (t [ var "q"; var "r"; var "x"; var "y" ]),
        "optimized mapping failed" );
      (* a shift is a bijection only of a temporal dimension: r + 1 is
         undefined on a string, so T__1 and S are empty *)
      ( "shift of a string dimension",
        [ ("q", quarter); ("r", Domain.String) ],
        [],
        tl [ a [ var "q"; var "r"; var "m" ] ] (t [ var "q"; Term.Shifted (var "r", 1); var "m" ]),
        sum_s ~group_by:[ var "q" ] (t [ var "q"; var "r"; var "y" ]),
        "solutions differ" );
    ]

(* An aggregation over a shifted weekly series, beside a seasonal
   decomposition the twelve weeks of the critical instance cannot hold:
   the shift is fused by unfolding, with no chase at all. *)
let test_agg_unfolding_without_critical_chase () =
  let src = "cube W(w: week);\nT := stl_t(W);\nS := sum(shift(W, 1), group by w);\n" in
  let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked (Exl.Program.load_exn src)) in
  Alcotest.(check bool) "the original fails on the critical instance" true
    (contains (verdict_to_string (O.equivalent_on_critical mapping mapping)) "original mapping failed");
  let report, chased = chased_tgd_counts (fun () -> O.run mapping) in
  Alcotest.(check (list int)) "no chase" [] chased;
  (match List.filter (fun (a : O.action) -> a.O.code = "I304") report.O.actions with
  | [ { O.certificate = O.Unfolding { chain; _ }; before = Some (Tgd.Aggregation _); _ } ] ->
      Alcotest.(check (list string)) "W's key recovered through the shift" [ "w ← w + 1" ] chain
  | _ -> Alcotest.fail "expected one aggregation fusion, proved by unfolding");
  Alcotest.(check (result unit string)) "all certificates verify" (Ok ()) (O.verify report);
  (* on A's instance the fused sum is the original's; [first] reads its
     bag in fact order, so the same fusion under [first] is cone-checked *)
  let m, _, _ = shifted_agg_mapping () in
  let report = O.run m in
  let s j = fst (chase_rel j (instance_a ()) "S") in
  Alcotest.(check bool) "same S" true (s m = s report.O.optimized);
  let first =
    {
      m with
      M.Mapping.t_tgds =
        List.map
          (function
            | Tgd.Aggregation g -> Tgd.Aggregation { g with aggr = Stats.Aggregate.First }
            | tgd -> tgd)
          m.M.Mapping.t_tgds;
    }
  in
  match O.fusion_candidates first with
  | [ next ] ->
      Alcotest.(check bool) "first: not unfolded" false
        (unfolded (fst (O.check_fusion (O.fusion_base first) next)))
  | l -> Alcotest.failf "first: expected one fusion candidate, got %d" (List.length l)

(* --- one writer per relation ------------------------------------------ *)

let t1_writer r =
  let r = match r with Some r -> Term.Const (Value.String r) | None -> var "r" in
  tl [ atom "A" [ var "q"; r; var "m" ] ] (atom "T__1" [ var "q"; r; var "m" ])

let t1_reader =
  tl [ atom "T__1" [ var "q"; var "r"; var "x" ] ] (atom "S" [ var "q"; var "r"; var "x" ])

let qr_dims = [ ("q", quarter); ("r", Domain.String) ]

let refused what ~needle = function
  | Ok _ -> Alcotest.failf "%s: expected an Error" what
  | Error msg -> Alcotest.(check bool) (what ^ ": " ^ msg) true (contains msg needle)

(* Two tgds write T__1, for regions "a" and "b": the full chase, the
   naive oracle, the incremental repair and the E204 lint each refuse
   the mapping and name T__1. *)
let test_second_writer_refused () =
  let m =
    hand_mapping
      ~t_tgds:[ t1_writer (Some "a"); t1_writer (Some "b"); t1_reader ]
      ~targets:[ schema "T__1" qr_dims; schema "S" qr_dims ]
  in
  let refused what = refused what ~needle:"relation T__1 is defined twice" in
  refused "run" (Result.map ignore (X.Chase.run m (instance_a ())));
  refused "run_naive" (Result.map ignore (X.Chase.run_naive m (instance_a ())));
  refused "incremental"
    (Result.map ignore
       (X.Chase.incremental ~state:(X.Chase.create_incr_state ()) m
          ~solution:(instance_a ()) ~deltas:[]));
  match List.filter (fun d -> d.A.Diagnostic.code = "E204") (A.Map_lints.run m) with
  | d :: _ -> refused "E204" (Error d.A.Diagnostic.message)
  | [] -> Alcotest.fail "E204: no diagnostic"

(* T__1 is written but not declared: the chase, the naive oracle and
   the critical-instance check return an Error naming it, and none
   raises. *)
let test_undeclared_target_refused () =
  let m =
    hand_mapping ~t_tgds:[ t1_writer None; t1_reader ] ~targets:[ schema "S" qr_dims ]
  in
  let refused what = refused what ~needle:"T__1" in
  refused "run" (Result.map ignore (X.Chase.run m (instance_a ())));
  refused "run_naive" (Result.map ignore (X.Chase.run_naive m (instance_a ())));
  refused "equivalent_on_critical" (O.equivalent_on_critical m m)

(* A weekly series cannot be seasonally decomposed on the critical
   instance, which holds twelve weeks: the original mapping cannot be
   chased there, so only the unfolding proof can certify its fusions. *)
let test_unfolding_without_critical_chase () =
  let src = "cube W(w: week);\nT := stl_t(W);\nG := 100 * (W - shift(W, 1)) / W;\n" in
  let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked (Exl.Program.load_exn src)) in
  Alcotest.(check bool) "the original fails on the critical instance" true
    (contains (verdict_to_string (O.equivalent_on_critical mapping mapping)) "original mapping failed");
  let report = O.run mapping in
  let fusions = List.filter (fun (a : O.action) -> a.O.code = "I304") report.O.actions in
  Alcotest.(check bool) "G's temporaries are fused" true (fusions <> []);
  List.iter
    (fun (a : O.action) ->
      Alcotest.(check bool) (a.O.target ^ ": proved by unfolding") true
        (match a.O.certificate with O.Unfolding _ -> true | _ -> false))
    fusions;
  Alcotest.(check (result unit string)) "all certificates verify" (Ok ()) (O.verify report)

(* --- engine wiring ---------------------------------------------------- *)

(* The engine chases the optimized mapping; its PCHNG is the reference
   interpreter's.  (Optimized == original is the fuzz optimize axis.) *)
let test_engine_matches_interpreter () =
  let t = Engine.Exlengine.create () in
  ok_s (Engine.Exlengine.register_program t ~name:"overview" overview_program);
  let reg = overview_registry () in
  List.iter
    (fun name -> ok_s (Engine.Exlengine.load_elementary t (Registry.find_exn reg name)))
    [ "PDR"; "RGDPPC" ];
  ignore (ok_s (Engine.Exlengine.recompute t));
  let reference = check_ok (Exl.Interp.run (load_overview ()) reg) in
  match Engine.Exlengine.cube t "PCHNG" with
  | Some c ->
      Alcotest.check cube_eq "engine PCHNG == interpreter"
        (Registry.find_exn reference "PCHNG") c
  | None -> Alcotest.fail "PCHNG not recomputed"

(* --- docs drift -------------------------------------------------------- *)

let is_code s =
  String.length s = 4
  && (match s.[0] with 'E' | 'W' | 'I' -> true | _ -> false)
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 3)

let test_diagnostics_docs_drift () =
  let doc =
    (* cwd is _build/default/test under [dune runtest] but the project
       root under [dune exec test/main.exe] (the CI drills) *)
    let path =
      List.find Sys.file_exists
        [ "../docs/DIAGNOSTICS.md"; "docs/DIAGNOSTICS.md" ]
    in
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* every documented code (a `| Wxxx |` table row) is in the catalogue,
     and every catalogue code has a table row *)
  let documented =
    String.split_on_char '\n' doc
    |> List.filter_map (fun line ->
           match String.split_on_char '|' line with
           | "" :: cell :: _ ->
               let c = String.trim cell in
               if is_code c then Some c else None
           | _ -> None)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string))
    "docs/DIAGNOSTICS.md and Diagnostic.catalogue agree" documented
    (List.sort_uniq compare A.Diagnostic.known_codes);
  (* and every code has a one-line description for `lint --explain` *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " has a description") true
        (A.Diagnostic.description c <> None))
    A.Diagnostic.known_codes

(* --- the property: chase(optimize m) == chase m ----------------------- *)

let qcheck_count =
  Helpers.qcheck_count ~var:"EXL_OPT_QCHECK_COUNT" ~default:30

let prop_optimize_preserves_chase =
  QCheck.Test.make ~count:qcheck_count
    ~name:"chase(optimize m) == chase m on random programs" Gen.arb_seed (fun seed ->
      let src, reg = Gen.program_of_seed seed in
      match Exl.Program.load src with
      | Error e ->
          QCheck.Test.fail_reportf "generated program does not check: %s\n%s"
            (Exl.Errors.to_string e) src
      | Ok checked -> (
          let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked checked) in
          let report = O.run mapping in
          (match O.verify report with
          | Ok () -> ()
          | Error msg -> QCheck.Test.fail_reportf "certificate rejected: %s\n%s" msg src);
          (* one writer per relation, in statement order, before and
             after the rewrites *)
          List.iter
            (fun (what, m) ->
              match M.Stratify.check m with
              | Ok () -> ()
              | Error msg -> QCheck.Test.fail_reportf "%s mapping: %s\n%s" what msg src)
            [ ("generated", mapping); ("optimized", report.O.optimized) ];
          match
            ( X.Chase.run mapping (X.Instance.of_registry reg),
              X.Chase.run report.O.optimized (X.Instance.of_registry reg) )
          with
          | Ok (j1, _), Ok (j2, _) ->
              List.iter
                (fun (s : Schema.t) ->
                  let name = s.Schema.name in
                  if
                    not
                      (Cube.equal_data ~eps:1e-7
                         (X.Instance.cube_of_relation j1 name)
                         (X.Instance.cube_of_relation j2 name))
                  then QCheck.Test.fail_reportf "relation %s differs on\n%s" name src)
                report.O.optimized.M.Mapping.target;
              true
          | Error e, _ | _, Error e ->
              QCheck.Test.fail_reportf "chase failed: %s\n%s" e src))

let prop_cone_check_matches_full =
  QCheck.Test.make ~count:qcheck_count
    ~name:"fusion cone check == full re-chase on every candidate" Gen.arb_seed
    (fun seed ->
      let src, _ = Gen.program_of_seed ~profile:Fuzz.Gen.deep seed in
      match Exl.Program.load src with
      | Error e ->
          QCheck.Test.fail_reportf "generated program does not check: %s\n%s"
            (Exl.Errors.to_string e) src
      | Ok checked -> (
          let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked checked) in
          match walk_fusions mapping with
          | Ok _ -> true
          | Error (next, proof, cone, full) ->
              QCheck.Test.fail_reportf
                "fusion check %s, cone check %s, full check %s on\n%s\nfrom\n%s"
                (proof_to_string proof) (verdict_to_string cone) (verdict_to_string full)
                (M.Mapping.to_string next) src))

(* A verified report is equivalent on the critical instance, unless
   the original itself cannot run there (a seasonal decomposition
   longer than its periods): then the oracle has nothing to say. *)
let prop_verified_agrees_on_critical =
  QCheck.Test.make ~count:qcheck_count
    ~name:"verify Ok => original == optimized on the critical instance" Gen.arb_seed
    (fun seed ->
      let src, _ = Gen.program_of_seed ~profile:Fuzz.Gen.deep seed in
      match Exl.Program.load src with
      | Error e ->
          QCheck.Test.fail_reportf "generated program does not check: %s\n%s"
            (Exl.Errors.to_string e) src
      | Ok checked -> (
          let { M.Generate.mapping; _ } = check_ok (M.Generate.of_checked checked) in
          let report = O.run mapping in
          match O.verify report with
          | Error _ -> true
          | Ok () -> (
              match O.equivalent_on_critical mapping report.O.optimized with
              | Ok _ -> true
              | Error e when contains e "original mapping failed" -> true
              | Error e ->
                  QCheck.Test.fail_reportf "verified, but the re-chase finds %s\n%s" e src)))

let suite =
  [
    ("containment: subsumption", `Quick, test_subsumes);
    ("containment: redundant atom", `Quick, test_redundant_atom);
    ("containment: egd merge", `Quick, test_mergeable_atoms);
    ("containment: fd chase", `Quick, test_fd_determines);
    ("containment: identity", `Quick, test_is_identity);
    ("optimize: minimize + merge (I303)", `Quick, test_minimize_and_merge);
    ("fuse: agg step rewrites keys", `Quick, test_fuse_step_agg_rewrites_keys);
    ("fuse: naive agg fusion is wrong", `Quick, test_naive_agg_fusion_changes_semantics);
    ("optimize: overview end to end", `Quick, test_optimize_overview);
    ("chase: nulls_created counts temps", `Quick, test_nulls_created_counts_temps);
    ("optimize: tampered certificate rejected", `Quick, test_tampered_certificate_rejected);
    ("verify: a log that does not replay is rejected", `Quick, test_replay_rejects_tampering);
    ("verify: a chased fusion is cone-checked", `Quick, test_chased_fusion_cone_checked);
    ("optimize: json report", `Quick, test_optimizer_report_json);
    ("optimize: same report on a second run", `Quick, test_optimizer_report_deterministic);
    ("fuse: names never capture", `Quick, test_fusion_names_never_capture);
    ("engine: PCHNG == reference interpreter", `Quick, test_engine_matches_interpreter);
    ("fusion check: cone == full on the examples", `Quick, test_cone_check_on_examples);
    ("verify: every example by replay, the re-chase agrees", `Quick, test_examples_verify_by_replay);
    ("fusion check: cone rejects like the full check", `Quick, test_cone_rejects_wrong_fusions);
    ("fusion check: new constants refresh the base", `Quick, test_commit_refreshes_base_on_new_constants);
    ("unfolding: each side condition declines", `Quick, test_unfolding_side_conditions);
    ("stratify: a relation two tgds write is refused", `Quick, test_second_writer_refused);
    ("stratify: an undeclared target is an Error", `Quick, test_undeclared_target_refused);
    ("unfolding: weekly decomposition, no critical chase", `Quick, test_unfolding_without_critical_chase);
    ("unfolding: aggregation side conditions decline", `Quick, test_agg_unfolding_side_conditions);
    ("unfolding: aggregation through a shift, no critical chase", `Quick, test_agg_unfolding_without_critical_chase);
    ("docs: diagnostics catalogue drift", `Quick, test_diagnostics_docs_drift);
    QCheck_alcotest.to_alcotest prop_optimize_preserves_chase;
    QCheck_alcotest.to_alcotest prop_cone_check_matches_full;
    QCheck_alcotest.to_alcotest prop_verified_agrees_on_critical;
  ]
