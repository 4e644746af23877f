open Matrix

type assignment_policy = {
  priority : string list;
  overrides : (string * string) list;
}

let default_policy = { priority = [ "sql"; "vector"; "etl" ]; overrides = [] }

(* All tgds (including those for normalizer temporaries) a cube's
   statement generates — what a target must support to own the cube. *)
let tgds_of_cube determination cube =
  Result.bind (Translation.submapping determination ~cubes:[ cube ])
    (fun mapping -> Ok mapping.Mappings.Mapping.t_tgds)

let supports_all (target : Target.t) tgds =
  List.for_all target.Target.supports tgds

let assign ~targets ~policy determination cube =
  Result.bind (tgds_of_cube determination cube) (fun tgds ->
      match List.assoc_opt cube policy.overrides with
      | Some forced -> (
          match Target.find targets forced with
          | None -> Error (Printf.sprintf "override for %s names unknown target %s" cube forced)
          | Some t ->
              if supports_all t tgds then Ok forced
              else
                Error
                  (Printf.sprintf
                     "override: target %s cannot compute cube %s (unsupported operator)"
                     forced cube))
      | None -> (
          let candidate =
            List.find_map
              (fun name ->
                match Target.find targets name with
                | Some t when supports_all t tgds -> Some name
                | _ -> None)
              policy.priority
          in
          match candidate with
          | Some name -> Ok name
          | None ->
              Error
                (Printf.sprintf "no target in [%s] can compute cube %s"
                   (String.concat ", " policy.priority)
                   cube)))

(* --- retry policy --- *)

type retry_policy = {
  max_attempts : int;
  base_backoff : float;
  backoff_multiplier : float;
  max_backoff : float;
  jitter : float;
  subgraph_timeout : float option;
}

let default_retry =
  {
    max_attempts = 3;
    base_backoff = 0.01;
    backoff_multiplier = 2.0;
    max_backoff = 0.5;
    jitter = 0.5;
    subgraph_timeout = None;
  }

(* Exponential backoff with deterministic jitter: attempt [n] waits
   min(base * multiplier^(n-1), max) scaled into [1 - jitter, 1] by the
   seeded hash — reproducible for a given (seed, subgraph, attempt),
   yet de-synchronized across subgraphs like randomized jitter. *)
let backoff_duration ~retry ~seed ~key ~attempt =
  if retry.base_backoff <= 0. then 0.
  else
    let exp =
      retry.base_backoff
      *. (retry.backoff_multiplier ** float_of_int (attempt - 1))
    in
    let capped = Float.min exp retry.max_backoff in
    capped *. (1. -. (retry.jitter *. Faults.uniform ~seed ~key attempt))

type subgraph_report = {
  target : string;
  cubes : string list;
  artifact : Target.artifact;
  translate_seconds : float;
  execute_seconds : float;
  attempts : int;
  translate_attempts : int;
}

type wave_report = {
  wave_subgraphs : (string * string list) list;
      (** (target name, cubes) of each subgraph run in the wave *)
  wave_seconds : float;  (** wall-clock for the whole wave *)
}

type report = {
  subgraphs : subgraph_report list;
  waves : wave_report list;
  recomputed : string list;
  translation_cache_hits : int;
  failures : Faults.failure_report list;
  quarantined : string list;
  skipped : string list;
}

let degraded r = r.quarantined <> [] || r.skipped <> []

let failure_summary r =
  if not (degraded r) && r.failures = [] then ""
  else
    String.concat "\n"
      (("failure summary:"
        :: List.map (fun f -> "  " ^ Faults.report_to_string f) r.failures)
      @ (if r.quarantined = [] then []
         else [ "quarantined: " ^ String.concat ", " r.quarantined ])
      @
      if r.skipped = [] then []
      else [ "skipped (upstream quarantined): " ^ String.concat ", " r.skipped ])

(* Wall clock, not [Sys.time]: CPU time over-counts when subgraphs run
   on several domains and under-counts blocked waits.  The Obs shim
   additionally clamps it monotone, so NTP steps cannot produce
   negative durations in reports or backoff math. *)
let now () = Obs.Clock.now ()

let merge_into store (result : Registry.t) cubes =
  List.iter
    (fun cube ->
      match Registry.find result cube with
      | Some c -> Registry.add store Registry.Derived c
      | None -> ())
    cubes

(* Group the (ordered) per-target subgraphs into waves: a wave extends
   while the next group reads nothing produced inside the wave, so all
   groups of a wave can execute concurrently (the paper's
   "parallelization patterns" in the dispatcher).  Generic over the
   group representation so prepared groups flow through directly — no
   re-association by physical equality afterwards. *)
let waves_of_groups ~sources_of ~cubes_of groups =
  let rec build acc wave wave_targets = function
    | [] -> List.rev (if wave = [] then acc else List.rev wave :: acc)
    | group :: rest ->
        let cubes = cubes_of group in
        let sources = sources_of cubes in
        let independent =
          List.for_all (fun s -> not (List.mem s wave_targets)) sources
        in
        if wave = [] || independent then
          build acc (group :: wave) (cubes @ wave_targets) rest
        else build (List.rev wave :: acc) [ group ] cubes rest
  in
  build [] [] [] groups

(* --- fault-tolerant subgraph execution --- *)

type group_outcome =
  | Computed of subgraph_report * Registry.t * Faults.failure_report list
      (** result to merge, plus the (resolved) failures survived on the
          way — each one a target that was abandoned for the next *)
  | Abandoned of Faults.failure_report list
      (** every capable target failed persistently: the subgraph's live
          cubes are quarantined *)

(* Fallback order: the assigned target first, then the remaining
   priority targets (in priority order) that exist and support every
   tgd of the (possibly narrowed) cube set. *)
let candidate_targets ~targets ~policy ~assigned tgds =
  assigned
  :: List.filter
       (fun name ->
         name <> assigned
         &&
         match Target.find targets name with
         | Some t -> supports_all t tgds
         | None -> false)
       policy.priority

(* Stamp resolutions onto the per-target failure trail: each abandoned
   target fell back to the next one tried; the last one either fell
   back to the target that finally succeeded or caused quarantine. *)
let stamp_resolutions ~success trail =
  let rec stamp = function
    | [] -> []
    | [ (f : Faults.failure_report) ] ->
        [
          {
            f with
            Faults.f_resolution =
              (match success with
              | Some name -> Faults.Fell_back name
              | None -> Faults.Quarantined);
          };
        ]
    | f :: ((next : Faults.failure_report) :: _ as rest) ->
        { f with Faults.f_resolution = Faults.Fell_back next.Faults.f_target }
        :: stamp rest
  in
  stamp trail

(* Run one subgraph to completion, quarantine, or bust: for each
   candidate target, translate then execute, retrying each failed step
   up to [retry.max_attempts] with jittered exponential backoff; on a
   persistently failing target, fall back to the next capable one
   (re-translating for the new engine).  Runs inside a pooled task, so
   it must never raise. *)
let run_group ?faults ~retry ~seed ~wave ~targets ~policy ~translation
    ~determination ~store (assigned, cubes) =
  let key = String.concat "," cubes in
  let sleep ~stage ~target ~attempt d =
    if d > 0. then begin
      Obs.count "dispatcher.retries";
      Obs.with_span "dispatch.backoff"
        ~attrs:
          [
            ("stage", stage);
            ("target", target);
            ("attempt", string_of_int attempt);
          ]
        (fun () -> Unix.sleepf d)
    end
    else Obs.count "dispatcher.retries"
  in
  let unresolved ~target ~stage ~kind ~attempts =
    {
      Faults.f_cubes = cubes;
      f_target = target;
      f_stage = stage;
      f_kind = kind;
      f_attempts = attempts;
      f_resolution = Faults.Quarantined (* stamped later *);
    }
  in
  match
    Result.map
      (fun (m : Mappings.Mapping.t) -> m.Mappings.Mapping.t_tgds)
      (Translation.submapping determination ~cubes)
  with
  | Error msg ->
      (* The subgraph's own mapping cannot be generated: no target can
         help, quarantine immediately. *)
      Abandoned
        [
          unresolved ~target:assigned ~stage:Faults.Translate
            ~kind:(Faults.Translate_error msg) ~attempts:1;
        ]
  | Ok tgds ->
      let exec_attempts = ref 0 in
      let translate_attempts = ref 0 in
      let attempt_target (t : Target.t) =
        let backoff_key = t.Target.name ^ "/" ^ key in
        let rec translate attempt =
          incr translate_attempts;
          match
            Obs.with_span "dispatch.retry"
              ~attrs:
                [
                  ("stage", "translate");
                  ("target", t.Target.name);
                  ("attempt", string_of_int attempt);
                ]
              (fun () ->
                Translation.translate ?faults translation determination
                  ~target:t ~cubes)
          with
          | Ok pair -> Ok pair
          | Error kind ->
              if attempt >= retry.max_attempts then
                Error (Faults.Translate, kind, attempt)
              else begin
                sleep ~stage:"translate" ~target:t.Target.name ~attempt
                  (backoff_duration ~retry ~seed ~key:backoff_key ~attempt);
                translate (attempt + 1)
              end
        in
        let t0 = now () in
        match translate 1 with
        | Error _ as e -> e
        | Ok (artifact, mapping) ->
            let translate_seconds = now () -. t0 in
            let rec execute attempt =
              incr exec_attempts;
              let t1 = now () in
              let outcome =
                Obs.with_span "dispatch.retry"
                  ~attrs:
                    [
                      ("stage", "execute");
                      ("target", t.Target.name);
                      ("attempt", string_of_int attempt);
                      ("cubes", key);
                    ]
                  (fun () ->
                    Target.guarded_execute ?faults ~cubes t mapping store)
              in
              let elapsed = now () -. t1 in
              let outcome =
                match (outcome, retry.subgraph_timeout) with
                | Ok _, Some limit when elapsed > limit ->
                    Error (Faults.Timeout elapsed)
                | _ -> outcome
              in
              match outcome with
              | Ok result ->
                  Ok
                    ( {
                        target = t.Target.name;
                        cubes;
                        artifact;
                        translate_seconds;
                        execute_seconds = elapsed;
                        attempts = 0 (* filled in below *);
                        translate_attempts = 0;
                      },
                      mapping,
                      result )
              | Error kind ->
                  if attempt >= retry.max_attempts then
                    Error (Faults.Execute, kind, attempt)
                  else begin
                    sleep ~stage:"execute" ~target:t.Target.name ~attempt
                      (backoff_duration ~retry ~seed ~key:backoff_key ~attempt);
                    execute (attempt + 1)
                  end
            in
            execute 1
      in
      let rec try_candidates trail = function
        | [] -> Abandoned (stamp_resolutions ~success:None (List.rev trail))
        | name :: rest -> (
            match Target.find targets name with
            | None ->
                (* the assigned target vanished from the palette: a
                   metadata failure, surfaced as a trail entry *)
                try_candidates
                  (unresolved ~target:name ~stage:Faults.Translate
                     ~kind:
                       (Faults.Translate_error
                          (Printf.sprintf "unknown target %s" name))
                     ~attempts:1
                  :: trail)
                  rest
            | Some t -> (
                match attempt_target t with
                | Ok (sr, mapping, result) ->
                    let fails =
                      stamp_resolutions ~success:(Some name) (List.rev trail)
                    in
                    Obs.count ~n:(List.length fails) "dispatcher.fallbacks";
                    let sr =
                      {
                        sr with
                        attempts = !exec_attempts;
                        translate_attempts = !translate_attempts;
                      }
                    in
                    if Obs.enabled () then
                      List.iter
                        (fun cube ->
                          Obs.record_provenance
                            {
                              Obs.Provenance.cube;
                              tgds =
                                List.filter_map
                                  (fun tgd ->
                                    if
                                      Mappings.Tgd.target_relation tgd = cube
                                    then Some (Mappings.Tgd.to_string tgd)
                                    else None)
                                  mapping.Mappings.Mapping.t_tgds;
                              wave;
                              target = name;
                              status = Obs.Provenance.Computed;
                              attempts = sr.attempts;
                              translate_attempts = sr.translate_attempts;
                              translate_seconds = sr.translate_seconds;
                              execute_seconds = sr.execute_seconds;
                            })
                        cubes;
                    Computed (sr, result, fails)
                | Error (stage, kind, attempts) ->
                    try_candidates
                      (unresolved ~target:name ~stage ~kind ~attempts :: trail)
                      rest))
      in
      try_candidates [] (candidate_targets ~targets ~policy ~assigned tgds)

let run ?(parallel = false) ?pool ?(retry = default_retry) ?faults ~targets
    ~policy ~translation ~determination ~store ~affected () =
  Obs.with_span "dispatcher.run"
    ~attrs:
      [
        ("affected", string_of_int (List.length affected));
        ("parallel", string_of_bool parallel);
      ]
  @@ fun () ->
  let seed = match faults with Some p -> Faults.seed p | None -> 0 in
  (* 1. assignment (static capability/override errors fail the run:
     they are configuration problems, not runtime faults) *)
  let rec assign_all acc = function
    | [] -> Ok (List.rev acc)
    | cube :: rest -> (
        match assign ~targets ~policy determination cube with
        | Ok target -> assign_all ((cube, target) :: acc) rest
        | Error _ as e -> e)
  in
  Result.bind (assign_all [] affected) (fun assignments ->
      (* 2. partition into consecutive same-target subgraphs *)
      let groups =
        Determination.partition
          ~assign:(fun cube ->
            match List.assoc_opt cube assignments with
            | Some t -> t
            | None -> "" (* unreachable: assignments covers [affected] *))
          affected
      in
      (* 3. order into waves; groups inside a wave touch disjoint data
         and may run on separate domains *)
      let sources_of cubes =
        List.concat_map (Determination.sources_of determination) cubes
      in
      let waves =
        if parallel then waves_of_groups ~sources_of ~cubes_of:snd groups
        else List.map (fun g -> [ g ]) groups
      in
      (* cube -> why it is dead: quarantined (its subgraph failed) or
         skipped (an upstream cube is dead) *)
      let dead : (string, [ `Quarantined | `Skipped ]) Hashtbl.t =
        Hashtbl.create 8
      in
      let run_group_task ~wave ((assigned, cubes) as group) () =
        Obs.with_span "dispatch.subgraph"
          ~attrs:
            [
              ("target", assigned);
              ("cubes", String.concat "," cubes);
              ("wave", string_of_int wave);
            ]
          (fun () ->
            run_group ?faults ~retry ~seed ~wave ~targets ~policy ~translation
              ~determination ~store group)
      in
      let rec run_waves w sub_acc wave_acc fail_acc = function
        | [] ->
            let with_status status =
              List.filter (fun c -> Hashtbl.find_opt dead c = Some status)
                affected
            in
            Obs.count
              ~n:(List.length (with_status `Quarantined))
              "dispatcher.quarantined_cubes";
            Obs.count
              ~n:(List.length (with_status `Skipped))
              "dispatcher.skipped_cubes";
            Ok
              {
                subgraphs = List.rev sub_acc;
                waves = List.rev wave_acc;
                recomputed =
                  List.filter (fun c -> not (Hashtbl.mem dead c)) affected;
                translation_cache_hits = Translation.cache_hits translation;
                failures = List.rev fail_acc;
                quarantined = with_status `Quarantined;
                skipped = with_status `Skipped;
              }
        | wave :: rest ->
            let t0 = now () in
            (* Narrow each group to its live cubes: a cube whose source
               is dead (in order, so intra-group chains propagate) is
               skipped, not executed against stale or missing data. *)
            let narrowed =
              List.filter_map
                (fun (target, cubes) ->
                  let live =
                    List.fold_left
                      (fun live cube ->
                        let dead_source =
                          List.exists (Hashtbl.mem dead)
                            (Determination.sources_of determination cube)
                        in
                        if dead_source then begin
                          Hashtbl.replace dead cube `Skipped;
                          if Obs.enabled () then
                            Obs.record_provenance
                              {
                                Obs.Provenance.cube;
                                tgds = [];
                                wave = w;
                                target = "";
                                status = Obs.Provenance.Skipped;
                                attempts = 0;
                                translate_attempts = 0;
                                translate_seconds = 0.;
                                execute_seconds = 0.;
                              };
                          live
                        end
                        else cube :: live)
                      [] cubes
                    |> List.rev
                  in
                  if live = [] then None else Some (target, live))
                wave
            in
            if narrowed = [] then run_waves (w + 1) sub_acc wave_acc fail_acc rest
            else begin
              let tasks =
                List.map
                  (fun ((target, live) as group) ->
                    ( Printf.sprintf "%s [%s]" target (String.concat ", " live),
                      run_group_task ~wave:w group ))
                  narrowed
              in
              let outcomes =
                Obs.with_span "dispatcher.wave"
                  ~attrs:
                    [
                      ("wave", string_of_int w);
                      ("subgraphs", string_of_int (List.length narrowed));
                    ]
                  (fun () ->
                    match tasks with
                    | [ (label, f) ] ->
                        [ (try Ok (f ()) with e -> Error (label, e)) ]
                    | _ ->
                        let pool =
                          match pool with Some p -> p | None -> Pool.shared ()
                        in
                        Pool.try_all pool tasks)
              in
              let wave_entry =
                {
                  wave_subgraphs = narrowed;
                  wave_seconds = now () -. t0;
                }
              in
              Obs.count "dispatcher.waves";
              Obs.count ~n:(List.length narrowed) "dispatcher.subgraphs";
              Obs.observe "dispatcher.wave_seconds" wave_entry.wave_seconds;
              let quarantine target live =
                List.iter
                  (fun c ->
                    Hashtbl.replace dead c `Quarantined;
                    if Obs.enabled () then
                      Obs.record_provenance
                        {
                          Obs.Provenance.cube = c;
                          tgds = [];
                          wave = w;
                          target;
                          status = Obs.Provenance.Quarantined;
                          attempts = 0;
                          translate_attempts = 0;
                          translate_seconds = 0.;
                          execute_seconds = 0.;
                        })
                  live
              in
              let sub_acc, fail_acc =
                List.fold_left2
                  (fun (sub_acc, fail_acc) (target, live) outcome ->
                    match outcome with
                    | Ok (Computed (sr, result, fails)) ->
                        merge_into store result live;
                        (sr :: sub_acc, List.rev_append fails fail_acc)
                    | Ok (Abandoned fails) ->
                        quarantine target live;
                        (sub_acc, List.rev_append fails fail_acc)
                    | Error (label, exn) ->
                        (* an exception escaped [run_group] itself —
                           surface it, quarantine, keep the wave *)
                        quarantine target live;
                        ( sub_acc,
                          {
                            Faults.f_cubes = live;
                            f_target = target;
                            f_stage = Faults.Execute;
                            f_kind =
                              Faults.Worker_crash
                                (label ^ ": " ^ Printexc.to_string exn);
                            f_attempts = 1;
                            f_resolution = Faults.Quarantined;
                          }
                          :: fail_acc ))
                  (sub_acc, fail_acc) narrowed outcomes
              in
              run_waves (w + 1) sub_acc (wave_entry :: wave_acc) fail_acc rest
            end
      in
      run_waves 0 [] [] [] waves)
