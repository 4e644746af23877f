open Matrix

type outcome = Agree | Skip of string | Disagree of string

type check = {
  axis : Lattice.axis;
  fuse : Lattice.fuse_mode;
  outcome : outcome;
}

(* --- shared plumbing ------------------------------------------------- *)

let parse_program source =
  match Exl.Parser.parse source with
  | Ok prog -> Ok prog
  | Error e -> Error (Exl.Errors.to_string e)

(* Statement left-hand sides of the original (unnormalized) program:
   the cubes every configuration must agree on.  Temps introduced by
   normalization are representation detail — fused/optimized mappings
   legitimately drop them. *)
let derived_names source =
  match parse_program source with
  | Error _ -> []
  | Ok prog ->
      List.fold_left
        (fun acc (s : Exl.Ast.stmt) ->
          if List.mem s.lhs acc then acc else acc @ [ s.lhs ])
        []
        (Exl.Ast.stmts prog)

let compiled scenario = Core.compile scenario.Scenario.source

(* The relations [names] of a chase solution, as a registry. *)
let registry_of_solution j names =
  let r = Registry.create () in
  List.iter
    (fun name ->
      Registry.add r Registry.Derived (Exchange.Instance.cube_of_relation j name))
    names;
  r

let chase ?(columnar = false) mapping data =
  Exchange.Chase.run ~columnar mapping
    (Exchange.Instance.of_registry (Registry.copy data))

(* --- axis: parse/pretty round-trip ----------------------------------- *)

let roundtrip_once what prog =
  let printed = Exl.Pretty.program_to_string prog in
  match Exl.Parser.parse printed with
  | Error e ->
      Some
        (Printf.sprintf "%s: pretty output does not re-parse: %s" what
           (Exl.Errors.to_string e))
  | Ok back ->
      if Exl.Ast.equal_program prog back then None
      else Some (Printf.sprintf "%s: pretty round-trip changes the program" what)

let check_roundtrip scenario =
  match parse_program scenario.Scenario.source with
  | Error msg -> Disagree ("generated program does not parse: " ^ msg)
  | Ok ast -> (
      match roundtrip_once "raw" ast with
      | Some d -> Disagree d
      | None -> (
          (* normalization folds constants: the floats it introduces
             must round-trip too *)
          match roundtrip_once "normalized" (Exl.Normalize.program ast) with
          | Some d -> Disagree d
          | None -> Agree))

(* --- axis: lint verdict stability ------------------------------------ *)

let lint_codes (r : Analysis.Lint.report) =
  List.sort compare
    (List.map (fun (d : Analysis.Diagnostic.t) -> d.code) r.diagnostics)

let check_lint scenario =
  let source = scenario.Scenario.source in
  let r1 = Analysis.Lint.source_diagnostics source in
  let errors =
    List.filter
      (fun (d : Analysis.Diagnostic.t) -> d.severity = Analysis.Diagnostic.Error)
      r1.diagnostics
  in
  if errors <> [] then
    Disagree
      ("generated program has lint errors: "
      ^ String.concat ", "
          (List.map (fun (d : Analysis.Diagnostic.t) -> d.code) errors))
  else
    match parse_program source with
    | Error msg -> Disagree ("does not parse: " ^ msg)
    | Ok ast ->
        let printed = Exl.Pretty.program_to_string ast in
        let r2 = Analysis.Lint.source_diagnostics printed in
        if lint_codes r1 = lint_codes r2 then Agree
        else
          Disagree
            (Printf.sprintf
               "lint verdict changes across pretty round-trip: [%s] vs [%s]"
               (String.concat ";" (lint_codes r1))
               (String.concat ";" (lint_codes r2)))

(* --- axis: all execution backends ------------------------------------ *)

let check_backends scenario =
  match compiled scenario with
  | Error msg -> Disagree ("does not compile: " ^ msg)
  | Ok prog -> (
      match
        Core.verify_all_backends prog (Registry.copy scenario.Scenario.data)
      with
      | Ok () -> Agree
      | Error msg -> Disagree msg)

(* --- axis: row vs columnar chase ------------------------------------- *)

let stats_diff (a : Exchange.Chase.stats) (b : Exchange.Chase.stats) =
  let fields =
    [
      ("matches_examined", a.matches_examined, b.matches_examined);
      ("tuples_generated", a.tuples_generated, b.tuples_generated);
      ("tgds_applied", a.tgds_applied, b.tgds_applied);
      ("egd_checks", a.egd_checks, b.egd_checks);
      ("nulls_created", a.nulls_created, b.nulls_created);
      ("rounds", a.rounds, b.rounds);
    ]
  in
  List.find_map
    (fun (name, x, y) ->
      if x = y then None
      else Some (Printf.sprintf "counter %s: %d vs %d" name x y))
    fields

(* The first target relation of [mapping] whose facts differ between
   two chase solutions (an exact comparison). *)
let facts_diff mapping j1 j2 =
  List.find_map
    (fun (s : Schema.t) ->
      let name = s.Schema.name in
      if Exchange.Instance.facts j1 name = Exchange.Instance.facts j2 name then None
      else Some (Printf.sprintf "relation %s differs" name))
    mapping.Mappings.Mapping.target

let check_columnar scenario =
  match Result.bind (compiled scenario) Core.mapping_of with
  | Error msg -> Disagree ("no mapping: " ^ msg)
  | Ok mapping -> (
      let data = scenario.Scenario.data in
      match (chase ~columnar:false mapping data, chase ~columnar:true mapping data) with
      | Ok (j1, s1), Ok (j2, s2) -> (
          let diff =
            match facts_diff mapping j1 j2 with None -> stats_diff s1 s2 | d -> d
          in
          match diff with
          | Some d -> Disagree ("row vs columnar: " ^ d)
          | None -> Agree)
      | Error e1, Error e2 ->
          if e1 = e2 then Agree
          else
            Disagree
              (Printf.sprintf "row vs columnar error messages differ: %s vs %s"
                 e1 e2)
      | Ok _, Error e -> Disagree ("columnar path errored, row did not: " ^ e)
      | Error e, Ok _ -> Disagree ("row path errored, columnar did not: " ^ e))

(* --- axis: optimized mapping ------------------------------------------ *)

(* Chase [baseline] and [variant] over the scenario's data: both
   solutions hold the same elementary and user cubes, or both chases
   fail with the same message. *)
let compare_mappings scenario baseline variant ~what =
  let data = scenario.Scenario.data in
  match (chase baseline data, chase variant data) with
  | Ok (j1, _), Ok (j2, _) -> (
      let names =
        Registry.elementary_names data @ derived_names scenario.Scenario.source
      in
      match
        Registry.diff ~eps:1e-6 ~names (registry_of_solution j1 names)
          (registry_of_solution j2 names)
      with
      | [] -> Agree
      | d :: _ -> Disagree (what ^ ": " ^ d))
  | Error e1, Error e2 ->
      if e1 = e2 then Agree
      else
        Disagree
          (Printf.sprintf "%s: error messages differ: %s vs %s" what e1 e2)
  | Ok _, Error e -> Disagree (Printf.sprintf "%s: variant errored: %s" what e)
  | Error e, Ok _ -> Disagree (Printf.sprintf "%s: baseline errored: %s" what e)

let check_optimize scenario =
  match Result.bind (compiled scenario) Core.mapping_of with
  | Error msg -> Disagree ("no mapping: " ^ msg)
  | Ok mapping -> (
      let report = Analysis.Optimize.run mapping in
      match Analysis.Optimize.verify report with
      | Error msg -> Disagree ("optimizer certificate fails: " ^ msg)
      | Ok () ->
          compare_mappings scenario mapping report.Analysis.Optimize.optimized
            ~what:"optimized vs original")

(* --- axis: fusion ----------------------------------------------------- *)

(* The historical naive aggregation fusion (outlawed by the optimizer's
   machine-checked certificates): inline a tuple-level producer into an
   aggregation by substituting its body atom, but keep the group-by
   keys positional instead of rewriting them through the unifier — a
   shifted key silently loses its shift.  Kept here, deliberately, as
   fault injection for the harness itself: [--fuse unsafe] must be
   caught and shrunk by the differential checks. *)
let naive_fuse (m : Mappings.Mapping.t) =
  let open Mappings in
  let uses rel t = List.mem rel (Tgd.source_relations t) in
  let consumers rel =
    List.length (List.filter (uses rel) m.Mapping.t_tgds)
  in
  let candidate =
    List.find_map
      (fun t ->
        match t with
        | Tgd.Aggregation { source; group_by; aggr; measure = _; target }
          when Exl.Normalize.is_temp source.Tgd.rel
               && consumers source.Tgd.rel = 1 -> (
            match Mapping.tgd_for m source.Tgd.rel with
            | Some (Tgd.Tuple_level { lhs = [ p_atom ]; _ } as producer) -> (
                let idx_of v =
                  let rec go i = function
                    | [] -> None
                    | Term.Var w :: _ when w = v -> Some i
                    | _ :: rest -> go (i + 1) rest
                  in
                  go 0 source.Tgd.args
                in
                let keys =
                  List.map
                    (fun term ->
                      match term with
                      | Term.Var v -> (
                          match idx_of v with
                          | Some i -> List.nth p_atom.Tgd.args i
                          | None -> term)
                      | other -> other)
                    group_by
                in
                match List.rev p_atom.Tgd.args with
                | Term.Var mv :: _ ->
                    Some
                      ( producer,
                        t,
                        source.Tgd.rel,
                        Tgd.Aggregation
                          {
                            source = p_atom;
                            group_by = keys;
                            aggr;
                            measure = mv;
                            target;
                          } )
                | _ -> None)
            | _ -> None)
        | _ -> None)
      m.Mapping.t_tgds
  in
  Option.map
    (fun (producer, consumer, temp, fused) ->
      {
        m with
        Mapping.t_tgds =
          List.filter_map
            (fun t ->
              if t == producer then None
              else if t == consumer then Some fused
              else Some t)
            m.Mapping.t_tgds;
        target =
          List.filter
            (fun (s : Schema.t) -> s.Schema.name <> temp)
            m.Mapping.target;
        egds =
          List.filter (fun (e : Egd.t) -> e.Egd.relation <> temp) m.Mapping.egds;
      })
    candidate

(* The artifact [exlc --emit sql-fused] ships: the optimizer's fused
   mapping, run on the SQL target, against the chase of the unfused
   mapping — the same user cubes, or both runs fail (each engine words
   its error its own way). *)
let check_fusion ~fuse scenario =
  match fuse with
  | Lattice.Off -> Skip "fusion disabled"
  | Lattice.Safe -> (
      match compiled scenario with
      | Error msg -> Disagree ("does not compile: " ^ msg)
      | Ok prog -> (
          match (Core.mapping_of prog, Core.fused_mapping_of prog) with
          | Error msg, _ | _, Error msg -> Disagree ("no mapping: " ^ msg)
          | Ok baseline, Ok fused -> (
              let data = scenario.Scenario.data in
              match
                ( chase baseline data,
                  Relational.Sql_target.execute fused (Registry.copy data) )
              with
              | Ok (j, _), Ok got -> (
                  let names = derived_names scenario.Scenario.source in
                  match Registry.diff ~eps:1e-6 ~names (registry_of_solution j names) got with
                  | [] -> Agree
                  | d :: _ -> Disagree ("fused SQL vs unfused chase: " ^ d))
              | Error _, Error _ -> Agree
              | Ok _, Error e ->
                  Disagree ("fused SQL errored, the chase did not: " ^ e)
              | Error e, Ok _ ->
                  Disagree ("the chase errored, fused SQL did not: " ^ e))))
  | Lattice.Unsafe -> (
      match Result.bind (compiled scenario) Core.mapping_of with
      | Error msg -> Disagree ("no mapping: " ^ msg)
      | Ok mapping -> (
          match naive_fuse mapping with
          | None -> Skip "no temp-fed aggregation to fuse"
          | Some naive ->
              compare_mappings scenario mapping naive
                ~what:"naive agg fusion vs unfused"))

(* --- axis: incremental vs scratch ------------------------------------- *)

let engine_config =
  { Engine.Exlengine.default_config with record_history = false }

let make_engine ?(config = engine_config) source data =
  let engine = Engine.Exlengine.create ~config () in
  match Engine.Exlengine.register_program engine ~name:"main" source with
  | Error msg -> Error msg
  | Ok () -> (
      match
        List.fold_left
          (fun acc name ->
            match acc with
            | Error _ -> acc
            | Ok () ->
                Engine.Exlengine.load_elementary engine
                  (Cube.copy (Registry.find_exn data name)))
          (Ok ())
          (Registry.elementary_names data)
      with
      | Error msg -> Error msg
      | Ok () -> Ok engine)

let apply_batch_directly data batch =
  List.iter
    (fun (u : Engine.Update.t) ->
      let cube = Registry.find_exn data u.cube in
      let k = Tuple.of_list u.key in
      match u.action with
      | Engine.Update.Set v -> Cube.set cube k v
      | Engine.Update.Remove -> Cube.remove cube k)
    batch

(* The first derived cube on which engine [a] differs from the
   reference engine [b] (a scratch or fault-free run). *)
let compare_engines ?(eps = 1e-6) a b =
  match
    Registry.diff ~eps
      ~names:(Engine.Determination.derived_order (Engine.Exlengine.determination a))
      (Engine.Exlengine.store b) (Engine.Exlengine.store a)
  with
  | [] -> None
  | d :: _ -> Some d

let check_incremental scenario =
  if scenario.Scenario.updates = [] then Skip "no update batches"
  else
    match make_engine scenario.Scenario.source scenario.Scenario.data with
    | Error msg -> Disagree ("engine setup: " ^ msg)
    | Ok engine -> (
        match Engine.Exlengine.recompute_all engine with
        | Error msg -> Disagree ("initial recompute: " ^ msg)
        | Ok _ -> (
            let incremental_error =
              List.fold_left
                (fun acc batch ->
                  match acc with
                  | Some _ -> acc
                  | None -> (
                      match Engine.Exlengine.apply_updates engine batch with
                      | Ok _ -> None
                      | Error msg -> Some msg))
                None scenario.Scenario.updates
            in
            match incremental_error with
            | Some msg -> Disagree ("apply_updates: " ^ msg)
            | None -> (
                let data = Registry.copy scenario.Scenario.data in
                List.iter (apply_batch_directly data) scenario.Scenario.updates;
                match make_engine scenario.Scenario.source data with
                | Error msg -> Disagree ("scratch engine setup: " ^ msg)
                | Ok scratch -> (
                    match Engine.Exlengine.recompute_all scratch with
                    | Error msg -> Disagree ("scratch recompute: " ^ msg)
                    | Ok _ -> (
                        match compare_engines engine scratch with
                        | None -> Agree
                        | Some d -> Disagree ("incremental vs scratch: " ^ d))))))

(* --- axis: fault transparency ----------------------------------------- *)

(* Tight backoff so injected timeouts and crashes don't make the fuzz
   campaign wall-clock-bound on retry sleeps. *)
let fault_retry =
  {
    Engine.Exlengine.default_config.retry with
    base_backoff = 0.0005;
    max_backoff = 0.005;
  }

let check_faults scenario =
  match scenario.Scenario.faults with
  | None -> Skip "no fault plan"
  | Some plan -> (
      Engine.Faults.reset plan;
      (* vector-first priority so sql-free faults actually bite, with
         sql as the always-capable fallback *)
      let policy =
        { Engine.Dispatcher.priority = [ "vector"; "etl"; "sql" ]; overrides = [] }
      in
      let config faults =
        { engine_config with policy; retry = fault_retry; faults }
      in
      let build faults =
        match
          make_engine ~config:(config faults) scenario.Scenario.source
            scenario.Scenario.data
        with
        | Error msg -> Error msg
        | Ok engine -> (
            match Engine.Exlengine.recompute_all engine with
            | Error msg -> Error msg
            | Ok report -> Ok (engine, report))
      in
      match (build (Some plan), build None) with
      | Ok (faulted, report), Ok (plain, _) -> (
          if Engine.Dispatcher.degraded report then
            Disagree
              ("sql-free faulted run degraded: "
              ^ Engine.Dispatcher.failure_summary report)
          else
            match compare_engines ~eps:1e-7 faulted plain with
            | None -> Agree
            | Some d -> Disagree ("faulted vs fault-free: " ^ d))
      | Error e1, Error e2 ->
          if e1 = e2 then Agree
          else
            Disagree
              (Printf.sprintf "faulted vs fault-free errors differ: %s vs %s" e1
                 e2)
      | Error e, Ok _ -> Disagree ("faulted run errored: " ^ e)
      | Ok _, Error e -> Disagree ("fault-free run errored: " ^ e))

(* --- dispatch --------------------------------------------------------- *)

let check_axis ~fuse scenario axis =
  match axis with
  | Lattice.Roundtrip -> check_roundtrip scenario
  | Lattice.Lint -> check_lint scenario
  | Lattice.Backends -> check_backends scenario
  | Lattice.Columnar -> check_columnar scenario
  | Lattice.Optimize -> check_optimize scenario
  | Lattice.Fusion -> check_fusion ~fuse scenario
  | Lattice.Incremental -> check_incremental scenario
  | Lattice.Faults -> check_faults scenario

let run ?(axes = Lattice.all) ?(fuse = Lattice.Safe) scenario =
  List.map
    (fun axis -> { axis; fuse; outcome = check_axis ~fuse scenario axis })
    axes

let replay scenario =
  let specs =
    match scenario.Scenario.axes with
    | [] -> List.map (fun a -> (a, Lattice.Safe)) Lattice.all
    | specs -> List.filter_map Lattice.of_spec specs
  in
  List.map
    (fun (axis, fuse) -> { axis; fuse; outcome = check_axis ~fuse scenario axis })
    specs

(* --- shrinking -------------------------------------------------------- *)

let stmt_count scenario =
  match parse_program scenario.Scenario.source with
  | Error _ -> 0
  | Ok prog -> List.length (Exl.Ast.stmts prog)

module SS = Set.Make (String)

(* Statements that must leave together with [lhs0]: everything
   (transitively) reading a removed cube. *)
let dependents stmts lhs0 =
  let removed = ref (SS.singleton lhs0) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (s : Exl.Ast.stmt) ->
        if
          (not (SS.mem s.lhs !removed))
          && List.exists (fun r -> SS.mem r !removed) (Exl.Ast.cube_refs s.rhs)
        then (
          removed := SS.add s.lhs !removed;
          changed := true))
      stmts
  done;
  !removed

(* Rebuild a scenario around a subset of its statements: unreferenced
   declarations lose their decl, data and updates; the program text is
   regenerated through the (round-trip-safe) pretty printer. *)
let rebuild scenario kept_stmts =
  match parse_program scenario.Scenario.source with
  | Error _ -> None
  | Ok prog ->
      let refs =
        List.fold_left
          (fun acc (s : Exl.Ast.stmt) ->
            SS.union acc (SS.of_list (Exl.Ast.cube_refs s.rhs)))
          SS.empty kept_stmts
      in
      let decls =
        List.filter
          (fun (d : Exl.Ast.decl) -> SS.mem d.d_name refs)
          (Exl.Ast.decls prog)
      in
      let keep_cube name =
        List.exists (fun (d : Exl.Ast.decl) -> d.d_name = name) decls
      in
      let items =
        List.map (fun d -> Exl.Ast.Decl d) decls
        @ List.map (fun s -> Exl.Ast.Stmt s) kept_stmts
      in
      let source = Exl.Pretty.program_to_string items in
      let data = Registry.create () in
      List.iter
        (fun name ->
          if keep_cube name then
            Registry.add data Registry.Elementary
              (Cube.copy (Registry.find_exn scenario.Scenario.data name)))
        (Registry.elementary_names scenario.Scenario.data);
      let updates =
        List.filter_map
          (fun batch ->
            match
              List.filter (fun (u : Engine.Update.t) -> keep_cube u.cube) batch
            with
            | [] -> None
            | kept -> Some kept)
          scenario.Scenario.updates
      in
      Some { scenario with Scenario.source; data; updates }

let with_data scenario f =
  let data = Registry.create () in
  List.iter
    (fun name ->
      match f name (Registry.find_exn scenario.Scenario.data name) with
      | Some cube -> Registry.add data Registry.Elementary cube
      | None ->
          Registry.add data Registry.Elementary
            (Cube.copy (Registry.find_exn scenario.Scenario.data name)))
    (Registry.elementary_names scenario.Scenario.data);
  { scenario with Scenario.data }

let shrink ?(budget = 300) ~fuse ~axis scenario =
  let budget = ref budget in
  let still candidate =
    if !budget <= 0 then false
    else (
      decr budget;
      match check_axis ~fuse candidate axis with
      | Disagree _ -> true
      | Agree | Skip _ -> false)
  in
  if not (still scenario) then scenario
  else
    let current = ref scenario in
    (* 1. statements, last first, each with its dependents *)
    let shrink_stmts () =
      let progress = ref true in
      while !progress && !budget > 0 do
        progress := false;
        match parse_program !current.Scenario.source with
        | Error _ -> ()
        | Ok prog ->
            let stmts = Exl.Ast.stmts prog in
            let try_remove lhs =
              let removed = dependents stmts lhs in
              let kept =
                List.filter
                  (fun (s : Exl.Ast.stmt) -> not (SS.mem s.lhs removed))
                  stmts
              in
              if kept = [] then false
              else
                match rebuild !current kept with
                | Some candidate when still candidate ->
                    current := candidate;
                    true
                | _ -> false
            in
            List.iter
              (fun (s : Exl.Ast.stmt) ->
                if (not !progress) && try_remove s.lhs then progress := true)
              (List.rev stmts)
      done
    in
    (* 2. update batches: whole batches, then halves *)
    let shrink_updates () =
      let try_with updates =
        let candidate = { !current with Scenario.updates } in
        if still candidate then (
          current := candidate;
          true)
        else false
      in
      let progress = ref true in
      while !progress && !budget > 0 do
        progress := false;
        let batches = !current.Scenario.updates in
        List.iteri
          (fun i _ ->
            if not !progress then
              let without = List.filteri (fun j _ -> j <> i) batches in
              if try_with without then progress := true)
          batches;
        if not !progress then
          List.iteri
            (fun i batch ->
              let n = List.length batch in
              if (not !progress) && n > 1 then (
                let first = List.filteri (fun j _ -> j < n / 2) batch in
                let second = List.filteri (fun j _ -> j >= n / 2) batch in
                let replace half =
                  List.mapi (fun j b -> if j = i then half else b) batches
                in
                if try_with (replace first) then progress := true
                else if try_with (replace second) then progress := true))
            batches
      done
    in
    (* 3. fault triggers *)
    let shrink_faults () =
      match !current.Scenario.faults with
      | None -> ()
      | Some plan ->
          (* the whole plan first (any axis but Faults survives that) *)
          let without = { !current with Scenario.faults = None } in
          if still without then current := without
          else
          let seed = Engine.Faults.seed plan in
          let progress = ref true in
          while !progress && !budget > 0 do
            progress := false;
            match !current.Scenario.faults with
            | None -> ()
            | Some plan ->
                let triggers = Engine.Faults.triggers plan in
                if List.length triggers > 1 then
                  List.iteri
                    (fun i _ ->
                      if not !progress then
                        let remaining = List.filteri (fun j _ -> j <> i) triggers in
                        let candidate =
                          {
                            !current with
                            Scenario.faults =
                              Some (Engine.Faults.plan ~seed remaining);
                          }
                        in
                        if still candidate then (
                          current := candidate;
                          progress := true))
                    triggers
          done
    in
    (* 4. data slices: drop groups of keys sharing a non-temporal
       dimension value, and truncate temporal series to their back half *)
    let shrink_data () =
      let progress = ref true in
      while !progress && !budget > 0 do
        progress := false;
        List.iter
          (fun name ->
            if not !progress then
              let cube = Registry.find_exn !current.Scenario.data name in
              let schema = Cube.schema cube in
              let dims = Schema.dim_names schema in
              List.iteri
                (fun di dim ->
                  if
                    (not !progress)
                    && not
                         (Domain.is_temporal
                            (Option.get (Schema.dim_domain schema dim)))
                  then
                    let values =
                      List.sort_uniq compare
                        (List.map
                           (fun (k, _) -> List.nth (Tuple.to_list k) di)
                           (Cube.to_alist cube))
                    in
                    if List.length values > 1 then
                      List.iter
                        (fun v ->
                          if not !progress then
                            let candidate =
                              with_data !current (fun n c ->
                                  if n <> name then None
                                  else
                                    Some
                                      (Cube.filter
                                         (fun k _ ->
                                           List.nth (Tuple.to_list k) di <> v)
                                         c))
                            in
                            if still candidate then (
                              current := candidate;
                              progress := true))
                        values)
                dims)
          (Registry.elementary_names !current.Scenario.data)
      done
    in
    shrink_stmts ();
    shrink_updates ();
    shrink_faults ();
    shrink_data ();
    (* a data shrink can unlock another statement shrink *)
    shrink_stmts ();
    !current
