open Matrix

type config = {
  targets : Target.t list;
  policy : Dispatcher.assignment_policy;
  record_history : bool;
  parallel_dispatch : bool;
  pool_size : int option;
      (* worker-domain count for parallel dispatch; None = the shared
         pool sized from Domain.recommended_domain_count *)
  retry : Dispatcher.retry_policy;
  faults : Faults.plan option;
      (* injected failures, for drills and tests; None in production *)
  optimize : bool;
      (* run the exl-opt containment pass on generated mappings before
         chasing them; on by default, opt out for A/B runs *)
  shards : int;
      (* partition full chases across this many shards, run on the
         domain pool with work stealing; 1 = unsharded *)
}

let default_config =
  {
    targets = Target.builtins;
    policy = Dispatcher.default_policy;
    record_history = true;
    parallel_dispatch = false;
    pool_size = None;
    retry = Dispatcher.default_retry;
    faults = None;
    optimize = true;
    shards = 1;
  }

(* The solution cache of the incremental path: the chase instance a
   full run produced (source Σst copies, every derived relation, and
   their persistent indexes), kept alive between update batches so the
   next batch can seed {!Exchange.Chase.incremental} with fact deltas
   instead of re-chasing full instances. *)
type solution = {
  sol_mapping : Mappings.Mapping.t;
  sol_instance : Exchange.Instance.t;
  sol_covered : string list;  (* derived cubes the mapping computes *)
  sol_state : Exchange.Chase.incr_state;
      (* group-scoped aggregation bags; lives and dies with the
         instance *)
}

type t = {
  config : config;
  determination : Determination.t;
  translation : Translation.t;
  store : Registry.t;
  history : Historicity.t;
  pool : Pool.t option;
  mutable dirty : string list;
  mutable solution : solution option;
}

let create ?(config = default_config) () =
  {
    config;
    determination = Determination.create ();
    translation = Translation.create ();
    store = Registry.create ();
    history = Historicity.create ();
    pool =
      (* sharded chases also need the pool: shard tasks run on it with
         work stealing *)
      (if config.parallel_dispatch || config.shards > 1 then
         Some
           (match config.pool_size with
           | Some size -> Pool.create ~size ()
           | None -> Pool.shared ())
       else None);
    dirty = [];
    solution = None;
  }

let invalidate_solution t = t.solution <- None

let register_program t ~name source =
  let r = Determination.register_source t.determination ~name source in
  if Result.is_ok r then invalidate_solution t;
  r

let load_elementary t cube =
  let name = Cube.name cube in
  match Determination.schema t.determination name with
  | None -> Error (Printf.sprintf "no program declares cube %s" name)
  | Some schema ->
      if Determination.kind t.determination name <> Some Registry.Elementary
      then Error (Printf.sprintf "cube %s is derived, not elementary" name)
      else begin
        let ok = ref true in
        Cube.iter
          (fun k _ -> if not (Schema.compatible_tuple schema k) then ok := false)
          cube;
        if not !ok then
          Error (Printf.sprintf "data for %s does not fit schema %s" name
                   (Schema.to_string schema))
        else begin
          Registry.add t.store Registry.Elementary
            (Cube.with_schema schema (Cube.copy cube));
          if not (List.mem name t.dirty) then t.dirty <- name :: t.dirty;
          (* A wholesale replacement invalidates the incremental
             solution cache; the next update batch rebuilds it. *)
          invalidate_solution t;
          Ok ()
        end
      end

let changed t = List.sort String.compare t.dirty

let default_as_of = Calendar.Date.make ~year:2026 ~month:1 ~day:1

let run_affected ?(as_of = default_as_of) t affected =
  Obs.with_span "engine.recompute"
    ~attrs:[ ("affected", string_of_int (List.length affected)) ]
  @@ fun () ->
  match
    Dispatcher.run ~parallel:t.config.parallel_dispatch ?pool:t.pool
      ~retry:t.config.retry ?faults:t.config.faults ~targets:t.config.targets
      ~policy:t.config.policy ~translation:t.translation
      ~determination:t.determination ~store:t.store ~affected ()
  with
  | Error _ as e -> e
  | Ok report ->
      if t.config.record_history then
        List.iter
          (fun cube ->
            match Registry.find t.store cube with
            | Some c -> Historicity.store t.history ~valid_from:as_of c
            | None -> ())
          report.Dispatcher.recomputed;
      t.dirty <- [];
      Ok report

let recompute ?as_of t =
  let affected = Determination.affected t.determination ~changed:t.dirty in
  run_affected ?as_of t affected

let recompute_all ?as_of t =
  run_affected ?as_of t (Determination.derived_order t.determination)

(* ----- batched incremental updates ----- *)

type update_report = {
  updated : string list;
  recomputed : string list;
  facts_changed : int;
  facts_rederived : int;
  total_facts : int;
  cache_hit : bool;
  strata_skipped : int;
  strata_rederived : int;
}

let empty_update_report =
  {
    updated = [];
    recomputed = [];
    facts_changed = 0;
    facts_rederived = 0;
    total_facts = 0;
    cache_hit = false;
    strata_skipped = 0;
    strata_rederived = 0;
  }

let validate_update t (u : Update.t) =
  match Determination.schema t.determination u.Update.cube with
  | None -> Error (Printf.sprintf "no program declares cube %s" u.Update.cube)
  | Some schema ->
      if Determination.kind t.determination u.Update.cube <> Some Registry.Elementary
      then
        Error
          (Printf.sprintf "cube %s is derived, not elementary" u.Update.cube)
      else
        let key = Tuple.of_list u.Update.key in
        if not (Schema.compatible_tuple schema key) then
          Error
            (Printf.sprintf "update key %s does not fit schema %s"
               (Tuple.to_string key) (Schema.to_string schema))
        else
          match u.Update.action with
          | Update.Remove -> Ok ()
          | Update.Set v ->
              if Domain.member v schema.Schema.measure_domain then Ok ()
              else
                Error
                  (Printf.sprintf "measure %s out of domain %s for %s"
                     (Value.to_string v)
                     (Domain.to_string schema.Schema.measure_domain)
                     u.Update.cube)

let validate_updates t updates =
  let rec loop = function
    | [] -> Ok ()
    | u :: rest -> (
        match validate_update t u with Error _ as e -> e | Ok () -> loop rest)
  in
  loop updates

(* Apply the batch to the store's elementary cubes in order, then
   compact it to net per-key changes: a key revised twice contributes
   one removed/added pair, a revision back to the original value
   contributes nothing. *)
let apply_to_store t updates =
  let originals : (string, Value.t option Tuple.Table.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (u : Update.t) ->
      let name = u.Update.cube in
      let cube =
        match Registry.find t.store name with
        | Some c -> c
        | None ->
            (* First data for this cube arrives as an update batch. *)
            let c =
              Cube.create (Option.get (Determination.schema t.determination name))
            in
            Registry.add t.store Registry.Elementary c;
            c
      in
      let touched =
        match Hashtbl.find_opt originals name with
        | Some tbl -> tbl
        | None ->
            let tbl = Tuple.Table.create 16 in
            Hashtbl.replace originals name tbl;
            tbl
      in
      let key = Tuple.of_list u.Update.key in
      if not (Tuple.Table.mem touched key) then
        Tuple.Table.replace touched key (Cube.find cube key);
      match u.Update.action with
      | Update.Set v -> Cube.set cube key v
      | Update.Remove -> Cube.remove cube key)
    updates;
  let fact key v = Array.append (Tuple.to_array key) [| v |] in
  Hashtbl.fold
    (fun name touched acc ->
      let cube = Registry.find_exn t.store name in
      let added = ref [] and removed = ref [] in
      Tuple.Table.iter
        (fun key original ->
          let final = Cube.find cube key in
          match (original, final) with
          | None, None -> ()
          | Some o, Some f when Value.equal o f -> ()
          | o, f ->
              Option.iter (fun v -> removed := fact key v :: !removed) o;
              Option.iter (fun v -> added := fact key v :: !added) f)
        touched;
      if !added = [] && !removed = [] then acc
      else
        (name, { Exchange.Chase.added = !added; removed = !removed }) :: acc)
    originals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Full rebuild of the solution cache: one semi-naive chase of the
   complete program over the (already updated) store. *)
let rebuild_solution t covered =
  match Translation.submapping t.determination ~cubes:covered with
  | Error _ as e -> e
  | Ok generated -> (
      (* The optimized mapping is what gets chased, cached and repaired
         incrementally; [covered] only names user cubes (never
         temporaries), so pruning temporaries is invisible to
         [store_derived]. *)
      let mapping =
        if t.config.optimize then
          (Analysis.Optimize.run generated).Analysis.Optimize.optimized
        else generated
      in
      let source = Exchange.Instance.of_registry t.store in
      let executor =
        (* shard tasks are coarse and uneven: steal-half rebalancing
           beats the plain shared-queue executor there *)
        match t.pool with
        | Some pool when t.config.shards > 1 -> Pool.stealing_executor pool
        | _ -> Exchange.Chase.sequential_executor
      in
      match
        Shard.Driver.run ~executor ~shards:t.config.shards mapping source
      with
      | Error _ as e -> e
      | Ok (instance, stats) ->
          let sol =
            {
              sol_mapping = mapping;
              sol_instance = instance;
              sol_covered = covered;
              sol_state = Exchange.Chase.create_incr_state ();
            }
          in
          t.solution <- Some sol;
          Ok (sol, stats.Exchange.Chase.tuples_generated))

let warm t =
  match t.solution with
  | Some _ -> Ok ()
  | None ->
      Result.map
        (fun _ -> ())
        (rebuild_solution t (Determination.derived_order t.determination))

let store_derived ?(as_of = default_as_of) t sol ~write_back ~versioned =
  List.iter
    (fun name ->
      let cube = Exchange.Instance.cube_of_relation sol.sol_instance name in
      Registry.add t.store Registry.Derived cube;
      if t.config.record_history && List.mem name versioned then
        Historicity.store t.history ~valid_from:as_of cube)
    write_back

let apply_updates ?as_of t (updates : Update.t list) =
  if updates = [] then Ok empty_update_report
  else
    Obs.with_span "incr.apply_updates"
      ~attrs:[ ("updates", string_of_int (List.length updates)) ]
    @@ fun () ->
    match validate_updates t updates with
    | Error _ as e -> e
    | Ok () -> (
        let deltas = apply_to_store t updates in
        let facts_changed =
          List.fold_left
            (fun acc (_, d) ->
              acc
              + List.length d.Exchange.Chase.added
              + List.length d.Exchange.Chase.removed)
            0 deltas
        in
        let updated = List.map fst deltas in
        Obs.count "incr.batches";
        if deltas = [] then Ok { empty_update_report with facts_changed }
        else
          let dirty = Determination.dirty_set t.determination ~changed:updated in
          let affected = dirty.Determination.dirty_derived in
          Obs.observe "incr.dirty_cubes" (float_of_int (List.length affected));
          if affected = [] then
            (* e.g. an update to a cube no statement reads *)
            Ok { empty_update_report with updated; facts_changed }
          else
            let propagated =
              match t.solution with
              | Some sol ->
                  Obs.count "incr.cache_hits";
                  let executor = Option.map Pool.executor t.pool in
                  (* A cube nothing reads has no relation in the cached
                     solution; its store update is already done and its
                     delta propagates nowhere. *)
                  let deltas =
                    List.filter
                      (fun (name, _) ->
                        Determination.dependents_of t.determination name <> [])
                      deltas
                  in
                  Result.map
                    (fun (_stats, istats) -> (sol, true, istats))
                    (match
                       Exchange.Chase.incremental ?executor
                         ~state:sol.sol_state sol.sol_mapping
                         ~solution:sol.sol_instance ~deltas
                     with
                    | Ok _ as ok -> ok
                    | Error _ as e ->
                        (* The instance (and bags) may be partially
                           repaired: drop the cache so the next batch
                           rebuilds from the store. *)
                        invalidate_solution t;
                        e)
              | None ->
                  Obs.count "incr.cache_misses";
                  Result.map
                    (fun (sol, tuples) ->
                      let istats = Exchange.Chase.empty_incr_stats () in
                      istats.Exchange.Chase.facts_rederived <- tuples;
                      (sol, false, istats))
                    (rebuild_solution t
                       (Determination.derived_order t.determination))
            in
            match propagated with
            | Error _ as e -> e
            | Ok (sol, cache_hit, istats) ->
                (* Transitive invalidation: only the affected cubes get
                   a new dated version; untouched cubes keep their
                   history so [cube_as_of] still answers for them. *)
                let write_back = if cache_hit then affected else sol.sol_covered in
                store_derived ?as_of t sol ~write_back ~versioned:affected;
                if not cache_hit then t.dirty <- [];
                Obs.count ~n:istats.Exchange.Chase.facts_rederived
                  "incr.facts_rederived";
                Ok
                  {
                    updated;
                    recomputed = affected;
                    facts_changed;
                    facts_rederived = istats.Exchange.Chase.facts_rederived;
                    total_facts =
                      Exchange.Instance.total_facts sol.sol_instance;
                    cache_hit;
                    strata_skipped = istats.Exchange.Chase.strata_skipped;
                    strata_rederived = istats.Exchange.Chase.strata_rederived;
                  })

let save_store t ~dir = Store.save ~dir t.store

let load_store t ~dir =
  invalidate_solution t;
  match Store.load ~dir with
  | Error _ as e -> e
  | Ok loaded ->
      let rec loop = function
        | [] -> Ok ()
        | name :: rest -> (
            let cube = Registry.find_exn loaded name in
            match Registry.kind_of loaded name with
            | Some Registry.Elementary -> (
                match load_elementary t cube with
                | Ok () -> loop rest
                | Error _ as e -> e)
            | _ ->
                Registry.add t.store Registry.Derived cube;
                loop rest)
      in
      loop (Registry.names loaded)

let cube t name = Registry.find t.store name
let cube_as_of t date name = Historicity.as_of t.history date name
let store t = t.store
let determination t = t.determination
let translation_cache t = t.translation
let history t = t.history
