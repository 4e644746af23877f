open Matrix

type config = {
  targets : Target.t list;
  policy : Dispatcher.assignment_policy;
  record_history : bool;
  parallel_dispatch : bool;
  retry : Dispatcher.retry_policy;
  faults : Faults.plan option;
      (* injected failures, for drills and tests; None in production *)
}

let default_config =
  {
    targets = Target.builtins;
    policy = Dispatcher.default_policy;
    record_history = true;
    parallel_dispatch = false;
    retry = Dispatcher.default_retry;
    faults = None;
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
      (* aggregation bags and derivation counts; lives and dies with
         the instance *)
  sol_written : (string, Cube.t) Hashtbl.t;
      (* the store cube this solution last wrote, per derived cube *)
}

type t = {
  config : config;
  determination : Determination.t;
  translation : Translation.t;
  store : Registry.t;
  history : Historicity.t;
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
    dirty = [];
    solution = None;
  }

let invalidate_solution t = t.solution <- None

let register_program t ~name source =
  let r = Determination.register_source t.determination ~name source in
  if Result.is_ok r then invalidate_solution t;
  r

let measure_error schema name v =
  Printf.sprintf "measure %s out of domain %s for %s" (Value.to_string v)
    (Domain.to_string schema.Schema.measure_domain)
    name

(* The declared schema of [name], which must be an elementary cube. *)
let elementary_schema t name =
  match Determination.schema t.determination name with
  | None -> Error (Printf.sprintf "no program declares cube %s" name)
  | Some schema ->
      if Determination.kind t.determination name <> Some Registry.Elementary
      then Error (Printf.sprintf "cube %s is derived, not elementary" name)
      else Ok schema

(* The installed version's column view is built here, and the check
   reads it: each key column's domain is checked once per distinct
   value and once per row whose own key differs from its code's first
   value in representation, and each measure once. *)
let load_elementary t cube =
  let name = Cube.name cube in
  match elementary_schema t name with
  | Error _ as e -> e
  | Ok schema -> (
      (* A copy: the caller may go on writing its own cube.  Raises
         when the cube's arity, or a key's, is not the schema's. *)
      let installed () =
        let c = Cube.with_schema schema cube in
        (c, Cube.view c)
      in
      let misfit () =
        Error
          (Printf.sprintf "data for %s does not fit schema %s" name
             (Schema.to_string schema))
      in
      match installed () with
      | exception Invalid_argument _ -> misfit ()
      | installed, view -> (
          let member dom x = Domain.member x dom in
          let column_fits i dim =
            let dict = view.Cube.dicts.(i) and dom = dim.Schema.dim_domain in
            let rec from c =
              c = Dict.size dict || (member dom (Dict.decode dict c) && from (c + 1))
            in
            from 0 && Array.for_all (fun (_, x) -> member dom x) view.Cube.exceptions.(i)
          in
          let keys_fit =
            Array.for_all Fun.id (Array.mapi column_fits schema.Schema.dims)
          in
          let bad_measure =
            Array.fold_left
              (fun bad v -> if member schema.Schema.measure_domain v then bad else Some v)
              None view.Cube.measures
          in
          match bad_measure with
          | _ when not keys_fit -> misfit ()
          | Some v -> Error (measure_error schema name v)
          | None ->
              Registry.add t.store Registry.Elementary installed;
              if not (List.mem name t.dirty) then t.dirty <- name :: t.dirty;
              (* A wholesale replacement invalidates the incremental
                 solution cache; the next update batch rebuilds it. *)
              invalidate_solution t;
              Ok ()))

let changed t = List.sort String.compare t.dirty

let default_as_of = Calendar.Date.make ~year:2026 ~month:1 ~day:1

let run_affected ?(as_of = default_as_of) t affected =
  Obs.with_span "engine.recompute"
    ~attrs:[ ("affected", string_of_int (List.length affected)) ]
  @@ fun () ->
  match
    Dispatcher.run ~parallel:t.config.parallel_dispatch
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

(* The update's key, once it passed validation. *)
let validate_update t (u : Update.t) =
  match elementary_schema t u.Update.cube with
  | Error _ as e -> e
  | Ok schema -> (
      let key = Tuple.of_list u.Update.key in
      if not (Schema.compatible_tuple schema key) then
        Error
          (Printf.sprintf "update key %s does not fit schema %s"
             (Tuple.to_string key) (Schema.to_string schema))
      else
        match u.Update.action with
        | Update.Remove -> Ok key
        | Update.Set v ->
            if Domain.member v schema.Schema.measure_domain then Ok key
            else Error (measure_error schema u.Update.cube v))

(* Every update paired with its key, or the first validation error. *)
let keyed_updates t updates =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | u :: rest -> (
        match validate_update t u with
        | Error _ as e -> e
        | Ok key -> loop ((u, key) :: acc) rest)
  in
  loop [] updates

let validate_updates t updates = Result.map ignore (keyed_updates t updates)

(* The engine never writes a cube it has installed: the batch writes
   an O(1) copy of each elementary cube it names (a fresh cube for a
   cube's first data) and installs the copies.  It is compacted to net
   per-key changes, each key's value before its first update against
   its value in the copy: a key revised twice contributes one
   removed/added pair, a revision back to the original value nothing.
   Also returns, per cube, the cube its copy replaced ([None] for a
   cube the batch created), to reinstall should the propagation
   fail. *)
let apply_to_store t keyed =
  let versions = Hashtbl.create 8 in
  List.iter
    (fun ((u : Update.t), key) ->
      let name = u.Update.cube in
      let _, cube, originals =
        match Hashtbl.find_opt versions name with
        | Some version -> version
        | None ->
            let previous = Registry.find t.store name in
            let cube =
              match previous with
              | Some c -> Cube.copy c
              | None ->
                  Cube.create
                    (Option.get (Determination.schema t.determination name))
            in
            let version = (previous, cube, Tuple.Table.create 16) in
            Hashtbl.replace versions name version;
            version
      in
      if not (Tuple.Table.mem originals key) then
        Tuple.Table.replace originals key (Cube.find cube key);
      match u.Update.action with
      | Update.Set v -> Cube.set cube key v
      | Update.Remove -> Cube.remove cube key)
    keyed;
  let deltas =
    Hashtbl.fold
      (fun name (_, cube, originals) acc ->
        Registry.add t.store Registry.Elementary cube;
        let added = ref [] and removed = ref [] in
        Tuple.Table.iter
          (fun key original ->
            match (original, Cube.find cube key) with
            | None, None -> ()
            | Some o, Some f when Value.equal o f -> ()
            | o, f ->
                let fact v = Tuple.append key v in
                Option.iter (fun v -> removed := fact v :: !removed) o;
                Option.iter (fun v -> added := fact v :: !added) f)
          originals;
        if !added = [] && !removed = [] then acc
        else
          (name, { Exchange.Chase.added = !added; removed = !removed }) :: acc)
      versions []
  in
  (List.sort (fun (a, _) (b, _) -> String.compare a b) deltas, versions)

(* Undo [apply_to_store]: the cubes its copies replaced go back. *)
let reinstall t versions =
  Hashtbl.iter
    (fun name (previous, _, _) ->
      match previous with
      | Some c -> Registry.add t.store Registry.Elementary c
      | None -> Registry.remove t.store name)
    versions

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
      let mapping = (Analysis.Optimize.run generated).Analysis.Optimize.optimized in
      let source = Exchange.Instance.of_registry t.store in
      match Exchange.Chase.run mapping source with
      | Error _ as e -> e
      | Ok (instance, stats) ->
          let sol =
            {
              sol_mapping = mapping;
              sol_instance = instance;
              sol_covered = covered;
              sol_state = Exchange.Chase.create_incr_state ();
              sol_written = Hashtbl.create 8;
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

(* Write the derived cubes [write_back] from the solution.  A cube
   whose store copy is the one this solution last wrote becomes an O(1)
   copy of it with the relation's net change from the chase applied;
   any other (written by the dispatcher or loaded from disk, or a
   solution's first write) is rebuilt whole from its relation.  Like
   every installed cube, the previous one is never written: snapshots
   and history versions may still hold it.  Returns the facts written. *)
let store_derived ?(as_of = default_as_of) t sol ~changes ~write_back
    ~versioned =
  List.fold_left
    (fun written name ->
      let previous = Registry.find t.store name in
      let cube, n =
        match (previous, Hashtbl.find_opt sol.sol_written name) with
        | Some prev, Some last when prev == last -> (
            match List.assoc_opt name changes with
            | None -> (prev, 0)
            | Some { Exchange.Chase.added; removed } ->
                let cube = Cube.copy prev in
                let arity = Schema.arity (Cube.schema cube) in
                let key (f : Exchange.Instance.fact) =
                  Tuple.of_array (Array.sub f 0 arity)
                in
                List.iter (fun f -> Cube.remove cube (key f)) removed;
                List.iter (fun f -> Cube.set cube (key f) f.(arity)) added;
                (cube, List.length removed + List.length added))
        | _ ->
            let cube =
              Exchange.Instance.cube_of_relation sol.sol_instance name
            in
            (cube, Cube.cardinality cube)
      in
      Hashtbl.replace sol.sol_written name cube;
      Registry.add t.store Registry.Derived cube;
      if t.config.record_history && List.mem name versioned then
        Historicity.store t.history ~valid_from:as_of cube;
      written + n)
    0 write_back

let apply_updates ?as_of t (updates : Update.t list) =
  if updates = [] then Ok empty_update_report
  else
    Obs.with_span "incr.apply_updates"
      ~attrs:[ ("updates", string_of_int (List.length updates)) ]
    @@ fun () ->
    match keyed_updates t updates with
    | Error _ as e -> e
    | Ok keyed -> (
        let deltas, versions = apply_to_store t keyed in
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
                    (fun (_stats, istats, changes) ->
                      (sol, true, istats, changes))
                    (match
                       Exchange.Chase.incremental ~state:sol.sol_state
                         sol.sol_mapping ~solution:sol.sol_instance ~deltas
                     with
                    | Ok _ as ok -> ok
                    | Error _ as e ->
                        (* The instance (and state) may be partially
                           repaired: drop the cache so the next batch
                           rebuilds from the restored store. *)
                        invalidate_solution t;
                        e)
              | None ->
                  Obs.count "incr.cache_misses";
                  Result.map
                    (fun (sol, tuples) ->
                      let istats = Exchange.Chase.empty_incr_stats () in
                      istats.Exchange.Chase.facts_rederived <- tuples;
                      (sol, false, istats, []))
                    (rebuild_solution t
                       (Determination.derived_order t.determination))
            in
            match propagated with
            | Error _ as e ->
                reinstall t versions;
                e
            | Ok (sol, cache_hit, istats, changes) ->
                (* Transitive invalidation: only the affected cubes get
                   a new dated version; untouched cubes keep their
                   history so [cube_as_of] still answers for them. *)
                let write_back = if cache_hit then affected else sol.sol_covered in
                let written =
                  store_derived ?as_of t sol ~changes ~write_back
                    ~versioned:affected
                in
                Obs.count ~n:written "incr.facts_written_back";
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
