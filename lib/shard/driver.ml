(* The sharded chase driver: partition, chase per shard, merge,
   residual pass.

   Phase A splits the source instance along the plan's shard key.
   Phase B runs the shard-local tgds to fixpoint on every shard
   independently — one executor task per shard, so a work-stealing
   executor rebalances uneven shards across domains; each task is a
   plain [Chase.run] (semi-naive, columnar, egds deferred) over the
   sub-mapping that keeps only the local tgds.  Phase C builds the
   merged solution deterministically: Σst source copies exactly as the
   unsharded run installs them, then the set-union of every shard's
   derived relations ([Instance.insert] is set-semantic and
   [Instance.facts] sorts, so insertion order cannot leak into the
   result).  Phase D walks the full stratification in order, running
   each stratum's residual tgds against the merged instance and then
   checking the stratum's functionality egds — the same per-stratum
   egd schedule the unsharded chase follows, only deferred past the
   merge for the shard phase's targets. *)

open Mappings
open Exchange

let local_targets (plan : Partition.t) =
  List.sort_uniq String.compare (List.map Tgd.target_relation plan.local)

let merge (plan : Partition.t) (m : Mapping.t) source (sols : Instance.t list) =
  (* Σst exactly as the unsharded run installs it. *)
  let merged = Chase.copy_sources ~columnar:true m source in
  List.iter
    (fun rel ->
      List.iter
        (fun sol ->
          Instance.iter_facts sol rel (fun fact ->
              ignore (Instance.insert merged rel (Array.copy fact) : bool)))
        sols)
    (local_targets plan);
  merged

let residual_pass ~check_egds ~executor (plan : Partition.t)
    (m : Mapping.t) merged (stats : Chase.stats) =
  let residual_targets =
    List.sort_uniq String.compare (List.map Tgd.target_relation plan.residual)
  in
  let strata = Chase.strata_of m in
  let rec loop i = function
    | [] -> Ok ()
    | stratum :: rest -> (
        let res =
          List.filter
            (fun tgd -> List.mem (Tgd.target_relation tgd) residual_targets)
            stratum
        in
        let step =
          if res = [] then Ok ()
          else
            Obs.with_span "shard.residual"
              ~attrs:
                [
                  ("stratum", string_of_int i);
                  ("tgds", string_of_int (List.length res));
                ]
              (fun () ->
                Chase.run_stratum ~executor ~columnar:true merged stats res)
        in
        match step with
        | Error _ as e -> e
        | Ok () -> (
            match
              Chase.check_target_egds ~check_egds m merged stats
                (List.map Tgd.target_relation stratum)
            with
            | Error _ as e -> e
            | Ok () -> loop (i + 1) rest))
  in
  loop 0 strata

let run_planned ~check_egds ~executor (plan : Partition.t)
    (m : Mapping.t) source =
  let shards = plan.Partition.shards in
  let stats = Chase.empty_stats () in
  (* Phase A: partition the source. *)
  let parts =
    Obs.with_span "shard.split"
      ~attrs:[ ("key", plan.Partition.key) ]
      (fun () -> Partition.split plan source)
  in
  if Obs.enabled () then begin
    let sizes = Array.map Instance.total_facts parts in
    let mx = Array.fold_left max 0 sizes in
    let mean =
      float_of_int (Array.fold_left ( + ) 0 sizes) /. float_of_int shards
    in
    Obs.gauge "shard.imbalance"
      (if mean > 0. then float_of_int mx /. mean else 1.)
  end;
  (* Phase B: chase every shard independently; one task per shard, so
     the executor (work-stealing under the engine) balances them. *)
  let sub = { m with Mapping.t_tgds = plan.Partition.local } in
  let solutions = Array.make shards None in
  let tasks =
    List.init shards (fun i () ->
        solutions.(i) <-
          Some
            (Obs.with_span "shard.chase"
               ~attrs:[ ("shard", string_of_int i) ]
               (fun () -> Chase.run ~check_egds:false sub parts.(i))))
  in
  executor tasks;
  let rec collect i acc =
    if i = shards then Ok (List.rev acc)
    else
      match solutions.(i) with
      | None -> Error (Printf.sprintf "shard %d task did not run" i)
      | Some (Error msg) -> Error msg
      | Some (Ok (sol, sstats)) ->
          Chase.merge_stats ~into:stats sstats;
          (* rounds are driver bookkeeping: report the parallel depth,
             i.e. the deepest shard *)
          stats.Chase.rounds <- max stats.Chase.rounds sstats.Chase.rounds;
          collect (i + 1) (sol :: acc)
  in
  match collect 0 [] with
  | Error _ as e -> e
  | Ok sols -> (
      (* Phase C: deterministic merge. *)
      let merged =
        Obs.with_span "shard.merge" (fun () -> merge plan m source sols)
      in
      (* Phase D: residual tgds + deferred egd checks, in stratum
         order. *)
      match residual_pass ~check_egds ~executor plan m merged stats with
      | Error _ as e -> e
      | Ok () -> Ok (merged, stats))

let run ?(check_egds = true) ?(executor = Chase.sequential_executor) ?key
    ?(range = false) ~shards (m : Mapping.t) source =
  if shards <= 1 then Chase.run ~check_egds ~executor m source
  else
    match Partition.make ?key ~range ~shards m with
    | Error _ when key = None ->
        (* No candidate key at all (e.g. dimension-less sources): there
           is nothing to partition on, so sharding degrades to the
           plain chase.  An explicit key that fails still errors
           below. *)
        Chase.run ~check_egds ~executor m source
    | Error msg -> Error ("sharded chase: " ^ msg)
    | Ok plan ->
        if plan.Partition.local = [] then
          (* Nothing is shard-local: partitioning would only add
             overhead, so run the plain chase.  The plan's reasons
             still name every cross-shard atom for diagnostics. *)
          Chase.run ~check_egds ~executor m source
        else
          Obs.with_span "shard.run"
            ~attrs:
              [
                ("key", plan.Partition.key);
                ("shards", string_of_int plan.Partition.shards);
                ("local", string_of_int (List.length plan.Partition.local));
                ( "residual",
                  string_of_int (List.length plan.Partition.residual) );
              ]
            (fun () -> run_planned ~check_egds ~executor plan m source)
