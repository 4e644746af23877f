open Matrix
module Tgd = Mappings.Tgd
module Term = Mappings.Term

type stats = {
  mutable matches_examined : int;
  mutable tuples_generated : int;
  mutable tgds_applied : int;
  mutable egd_checks : int;
  mutable nulls_created : int;
  mutable rounds : int;
}

let empty_stats () =
  {
    matches_examined = 0;
    tuples_generated = 0;
    tgds_applied = 0;
    egd_checks = 0;
    nulls_created = 0;
    rounds = 0;
  }

exception Chase_error of string

(* Try to extend [binding] so that [args] (terms) match [fact] (values),
   positionally.  Complex terms whose variables are not all bound yet
   are deferred to [deferred]. *)
let match_fact binding deferred args fact =
  let n = Array.length fact in
  if List.length args <> n then None
  else
    let rec loop i binding deferred = function
      | [] -> Some (binding, deferred)
      | term :: rest -> (
          let value = fact.(i) in
          match term with
          | Term.Var v -> (
              match Binding.lookup binding v with
              | Some bound ->
                  if Value.equal bound value then
                    loop (i + 1) binding deferred rest
                  else None
              | None -> loop (i + 1) (Binding.bind binding v value) deferred rest)
          | _ ->
              if Binding.term_fully_bound binding term then
                match Binding.term_value binding term with
                | Some computed when Value.equal computed value ->
                    loop (i + 1) binding deferred rest
                | _ -> None
              else loop (i + 1) binding ((term, value) :: deferred) rest)
    in
    loop 0 binding deferred args

(* Re-check deferred constraints that became evaluable. *)
let settle_deferred binding deferred =
  let rec loop acc = function
    | [] -> Some acc
    | (term, value) :: rest ->
        if Binding.term_fully_bound binding term then
          match Binding.term_value binding term with
          | Some computed when Value.equal computed value -> loop acc rest
          | _ -> None
        else loop ((term, value) :: acc) rest
  in
  loop [] deferred

let determined_positions bound_vars (atom : Tgd.atom) =
  List.mapi (fun i term -> (i, term)) atom.Tgd.args
  |> List.filter (fun (_, term) ->
         List.for_all (fun v -> List.mem v bound_vars) (Term.vars term))
  |> List.map fst

let extend_bound_vars bound_vars (atom : Tgd.atom) =
  List.fold_left
    (fun acc term -> match term with Term.Var v -> v :: acc | _ -> acc)
    bound_vars atom.Tgd.args

(* Enumerate all assignments satisfying the conjunction of atoms, with
   per-application throwaway caches — the naive baseline.

   This is a hash join: for each atom after the first, the argument
   positions whose terms are fully determined by the variables bound so
   far (statically known) are used as a lookup key into an index built
   once per (relation, positions) pair, so a two-atom tgd runs in time
   linear in the instance rather than quadratic. *)
let match_atoms instance stats atoms (k : Binding.t -> unit) =
  let fact_cache : (string, Value.t array array) Hashtbl.t = Hashtbl.create 4 in
  let facts_of rel =
    match Hashtbl.find_opt fact_cache rel with
    | Some f -> f
    | None ->
        let f = Array.of_list (Instance.facts instance rel) in
        Hashtbl.replace fact_cache rel f;
        f
  in
  let index_cache :
      (string * int list, Value.t array list Tuple.Table.t) Hashtbl.t =
    Hashtbl.create 4
  in
  let index_of rel positions =
    let cache_key = (rel, positions) in
    match Hashtbl.find_opt index_cache cache_key with
    | Some idx -> idx
    | None ->
        let idx = Tuple.Table.create 64 in
        (* Iterate in reverse so each bucket ends up in sorted order. *)
        let all = facts_of rel in
        for i = Array.length all - 1 downto 0 do
          let fact = all.(i) in
          let key = Tuple.of_list (List.map (fun p -> fact.(p)) positions) in
          Tuple.Table.add_multi idx key fact
        done;
        Hashtbl.replace index_cache cache_key idx;
        idx
  in
  let rec go bound_vars binding deferred = function
    | [] ->
        if deferred <> [] then
          raise
            (Chase_error
               "tgd not executable: a complex term's variables never get bound");
        k binding
    | (atom : Tgd.atom) :: rest ->
        let determined = determined_positions bound_vars atom in
        let candidates =
          if determined = [] then Some (facts_of atom.Tgd.rel)
          else
            let expected =
              List.map
                (fun p -> Binding.term_value binding (List.nth atom.Tgd.args p))
                determined
            in
            if List.exists Option.is_none expected then None
            else
              let key = Tuple.of_list (List.map Option.get expected) in
              let idx = index_of atom.Tgd.rel determined in
              Some (Array.of_list (Tuple.Table.find_multi idx key))
        in
        let bound_vars' = extend_bound_vars bound_vars atom in
        (match candidates with
        | None -> ()
        | Some facts ->
            Array.iter
              (fun fact ->
                stats.matches_examined <- stats.matches_examined + 1;
                match match_fact binding deferred atom.Tgd.args fact with
                | None -> ()
                | Some (binding', deferred') -> (
                    match settle_deferred binding' deferred' with
                    | None -> ()
                    | Some deferred'' -> go bound_vars' binding' deferred'' rest))
              facts)
  in
  go [] Binding.empty [] atoms

(* ----- plan enumeration over the persistent indexes ----- *)

(* A small fact list probed by position: [bag_lookup] buckets it by
   the probed positions on first use. *)
type fact_bag = {
  facts : Instance.fact list;
  buckets : (int list, Instance.fact list Tuple.Table.t) Hashtbl.t;
}

let bag facts = { facts; buckets = Hashtbl.create 2 }

let bag_lookup b positions key =
  if b.facts = [] then []
  else
    let idx =
      match Hashtbl.find_opt b.buckets positions with
      | Some idx -> idx
      | None ->
          let idx = Tuple.Table.create 16 in
          List.iter
            (fun (f : Instance.fact) ->
              Tuple.Table.add_multi idx
                (Tuple.of_list (List.map (fun p -> f.(p)) positions))
                f)
            b.facts;
          Hashtbl.replace b.buckets positions idx;
          idx
    in
    Tuple.Table.find_multi idx key

(* A relation's state before a change, read through the current
   instance: the current facts minus [excluded] (added since) plus
   [restored] (removed since). *)
type old_view = { excluded : unit Tuple.Table.t; restored : fact_bag }

let old_view ~added ~removed =
  let excluded = Tuple.Table.create 16 in
  List.iter (fun f -> Tuple.Table.replace excluded (Tuple.of_array f) ()) added;
  { excluded; restored = bag removed }

(* What an atom may range over in a plan: the current instance, the
   state before a change ([Old]), or exactly the delta.  With the pivot
   drawing from the delta, atoms before it (in the original order)
   ranging over the full state and atoms after it over the old state,
   every mixed combination of old and delta facts is derived exactly
   once — the textbook semi-naive decomposition. *)
type atom_source = Full | Old of old_view | Delta of fact_bag

(* Enumerate the plan's atoms in list order.  An atom whose positions
   are determined by the variables bound so far is probed (the
   persistent index for the instance, a bucketed bag for deltas and
   restored facts); any other is scanned. *)
let match_plan instance stats (plan : (Tgd.atom * atom_source) list)
    (k : Binding.t -> unit) =
  let full_cache : (string, Instance.fact list) Hashtbl.t = Hashtbl.create 4 in
  let all_facts rel =
    match Hashtbl.find_opt full_cache rel with
    | Some l -> l
    | None ->
        let acc = ref [] in
        Instance.iter_facts instance rel (fun f -> acc := f :: !acc);
        Hashtbl.replace full_cache rel !acc;
        !acc
  in
  let current rel determined = function
    | None -> all_facts rel
    | Some values -> Instance.lookup_index instance rel determined values
  in
  let from_bag b determined = function
    | None -> b.facts
    | Some values -> bag_lookup b determined (Tuple.of_list values)
  in
  let candidates source rel determined values =
    match source with
    | Delta b -> from_bag b determined values
    | Full -> current rel determined values
    | Old view ->
        List.rev_append
          (from_bag view.restored determined values)
          (List.filter
             (fun f -> not (Tuple.Table.mem view.excluded (Tuple.of_array f)))
             (current rel determined values))
  in
  (* Which positions each atom probes depends only on the plan order,
     so it is worked out once per plan, not per binding. *)
  let rec steps bound_vars = function
    | [] -> []
    | ((atom : Tgd.atom), source) :: rest ->
        let determined = determined_positions bound_vars atom in
        (atom, source, determined, List.map (List.nth atom.Tgd.args) determined)
        :: steps (extend_bound_vars bound_vars atom) rest
  in
  let rec go binding deferred = function
    | [] ->
        if deferred <> [] then
          raise
            (Chase_error
               "tgd not executable: a complex term's variables never get bound");
        k binding
    | ((atom : Tgd.atom), source, determined, probes) :: rest ->
        let expected = List.map (Binding.term_value binding) probes in
        if List.for_all Option.is_some expected then
          List.iter
            (fun fact ->
              stats.matches_examined <- stats.matches_examined + 1;
              match match_fact binding deferred atom.Tgd.args fact with
              | None -> ()
              | Some (binding', deferred') -> (
                  match settle_deferred binding' deferred' with
                  | None -> ()
                  | Some deferred'' -> go binding' deferred'' rest))
            (candidates source atom.Tgd.rel determined
               (if determined = [] then None
                else Some (List.map Option.get expected)))
  in
  go Binding.empty [] (steps [] plan)

let indexed_matcher instance stats atoms k =
  match_plan instance stats (List.map (fun a -> (a, Full)) atoms) k

(* ----- tgd application ----- *)

(* [nulls_created] is the non-core overhead counter: facts landing in
   temporary relations are the labelled-null padding of a non-core
   solution (a core solution holds no temporaries), and outer combines
   additionally count every default substituted for a missing side. *)
let count_generated stats rel n =
  stats.tuples_generated <- stats.tuples_generated + n;
  if Exl.Normalize.is_temp rel then
    stats.nulls_created <- stats.nulls_created + n

let count_new stats rel = count_generated stats rel 1

let emit_fact instance stats rel fact =
  if Instance.insert instance rel fact then count_new stats rel

(* The rhs values a binding derives; [None] when any term is undefined,
   which leaves a hole in the result cube, matching the
   partial-function semantics of EXL operators. *)
let rhs_fact binding (rhs : Tgd.atom) =
  let values = List.map (Binding.term_value binding) rhs.Tgd.args in
  if List.for_all Option.is_some values then
    Some (Array.of_list (List.map Option.get values))
  else None

let apply_tuple_level ~matcher ~out instance stats lhs (rhs : Tgd.atom) =
  matcher instance stats lhs (fun binding ->
      Option.iter (emit_fact out stats rhs.Tgd.rel) (rhs_fact binding rhs))

(* Bind one source fact of an aggregation tgd to its (group key,
   measure) contribution; [None] when the fact does not match the
   source atom's constants.  Shared by the full evaluation and the
   group-scoped incremental path, which must classify delta facts
   exactly the way the full run binned them.  Staged on the atom: when
   its arguments are distinct variables (the generated shape) every
   fact matches and a variable reads its position directly, with no
   binding built per fact. *)
let agg_classify (source : Tgd.atom) group_by measure =
  let value_of lookup t =
    match Term.eval lookup t with
    | Some v -> v
    | None ->
        raise
          (Chase_error
             (Printf.sprintf "group-by term %s undefined on a source tuple"
                (Term.to_string t)))
  in
  let classify lookup =
    let key_values = List.map (value_of lookup) group_by in
    match Option.bind (lookup measure) Value.to_float with
    | Some m -> Some (Tuple.of_list key_values, m)
    | None -> raise (Chase_error "aggregation measure is not numeric")
  in
  let vars =
    List.filter_map (function Term.Var v -> Some v | _ -> None) source.Tgd.args
  in
  let arity = List.length source.Tgd.args in
  if List.length (List.sort_uniq String.compare vars) = arity then
    fun (fact : Instance.fact) ->
      if Array.length fact <> arity then None
      else
        let rec position i v = function
          | [] -> None
          | w :: rest ->
              if String.equal v w then Some fact.(i)
              else position (i + 1) v rest
        in
        classify (fun v -> position 0 v vars)
  else fun fact ->
    match match_fact Binding.empty [] source.Tgd.args fact with
    | None -> None
    | Some (binding, deferred) ->
        if deferred <> [] then
          raise (Chase_error "aggregation source atom must use variables");
        classify (Binding.lookup binding)

let apply_aggregation ~out instance stats (source : Tgd.atom) group_by
    aggr measure target =
  let groups : float list ref Tuple.Table.t = Tuple.Table.create 64 in
  let order = ref [] in
  let classify = agg_classify source group_by measure in
  List.iter
    (fun fact ->
      stats.matches_examined <- stats.matches_examined + 1;
      match classify fact with
      | None -> ()
      | Some (key, m) -> (
          match Tuple.Table.find_opt groups key with
          | Some bag -> bag := m :: !bag
          | None ->
              Tuple.Table.replace groups key (ref [ m ]);
              order := key :: !order))
    (Instance.facts instance source.Tgd.rel);
  List.iter
    (fun key ->
      let bag = List.rev !(Tuple.Table.find groups key) in
      let result = Stats.Aggregate.apply aggr bag in
      if not (Float.is_nan result) then
        emit_fact out stats target (Tuple.append key (Value.of_float result)))
    (List.rev !order)

let apply_table_fn ~out instance stats fn params source target =
  let cube = Instance.cube_of_relation instance source in
  let op =
    match Ops.Blackbox.find fn with
    | Some op -> op
    | None -> raise (Chase_error ("unknown black-box operator " ^ fn))
  in
  match Ops.Blackbox.apply_cube op ~params cube with
  | Error msg -> raise (Chase_error msg)
  | Ok result ->
      Cube.iter
        (fun k v ->
          stats.matches_examined <- stats.matches_examined + 1;
          emit_fact out stats target (Tuple.append k v))
        result

(* The default-value vectorial variant: the union of both key sets,
   missing sides contributing the default measure. *)
let apply_outer_combine ~out instance stats (left : Tgd.atom)
    (right : Tgd.atom) op default target =
  let dims_of fact =
    let n = Array.length fact - 1 in
    (Tuple.of_array (Array.sub fact 0 n), fact.(n))
  in
  let load (atom : Tgd.atom) =
    let table : Value.t Tuple.Table.t = Tuple.Table.create 64 in
    List.iter
      (fun fact ->
        stats.matches_examined <- stats.matches_examined + 1;
        let key, measure = dims_of fact in
        Tuple.Table.replace table key measure)
      (Instance.facts instance atom.Tgd.rel);
    table
  in
  let l = load left and r = load right in
  let emit key vl vr =
    let fl = Option.value ~default (Option.bind vl Value.to_float) in
    let fr = Option.value ~default (Option.bind vr Value.to_float) in
    match Ops.Binop.eval op fl fr with
    | Some result ->
        if vl = None || vr = None then
          stats.nulls_created <- stats.nulls_created + 1;
        emit_fact out stats target (Tuple.append key (Value.of_float result))
    | None -> ()
  in
  Tuple.Table.iter (fun key vl -> emit key (Some vl) (Tuple.Table.find_opt r key)) l;
  Tuple.Table.iter
    (fun key vr -> if not (Tuple.Table.mem l key) then emit key None (Some vr))
    r

(* [out] is where derived facts land; reads go to [instance].  They
   coincide everywhere except the naive driver, whose Jacobi rounds
   read a frozen snapshot while writing the live instance.
   [vectorized] routes kernel-able tgds through the columnar engine
   (reads and writes must coincide — the column view is frozen);
   shapes the kernels do not handle fall through to the row matcher.
   With [seal], a kernel whose target holds no facts yet writes the
   target's column view: its facts are encoded as they come, sorted
   and deduplicated once ([Cube.seal]) and installed whole, and only
   the facts kept are counted.  Otherwise (without [seal], or should
   the target already hold facts) they are inserted one by one. *)
let apply_body_full ~matcher ?(vectorized = false) ?(seal = false) ?out instance
    stats tgd =
  let out = Option.value ~default:instance out in
  let vectorize () =
    vectorized && out == instance
    &&
    let target = Tgd.target_relation tgd in
    let run emit =
      Vchase.apply
        {
          Vchase.read = instance;
          count = (fun n -> stats.matches_examined <- stats.matches_examined + n);
          emit;
        }
        tgd
    in
    match Instance.schema instance target with
    | Some schema when seal && Instance.cardinality instance target = 0 ->
        let b = Cube.builder (Schema.arity schema) in
        run (Cube.add b)
        &&
        let v = Cube.seal b in
        Instance.set_view instance schema v;
        count_generated stats target v.Cube.size;
        true
    | _ -> run (emit_fact out stats target)
  in
  match tgd with
  | Tgd.Tuple_level { lhs; rhs } ->
      if not (vectorize ()) then
        apply_tuple_level ~matcher ~out instance stats lhs rhs
  | Tgd.Aggregation { source; group_by; aggr; measure; target } ->
      if not (vectorize ()) then
        apply_aggregation ~out instance stats source group_by aggr measure
          target
  | Tgd.Table_fn { fn; params; source; target } ->
      apply_table_fn ~out instance stats fn params source target
  | Tgd.Outer_combine { left; right; op; default; target } ->
      apply_outer_combine ~out instance stats left right op default target

let wrap_chase f =
  try
    f ();
    Ok ()
  with
  | Chase_error msg | Vchase.Error msg -> Error msg
  | Cube.Functionality_violation { cube; key } ->
      Error
        (Printf.sprintf "functionality violation in %s at %s" cube
           (Tuple.to_string key))

(* Apply [tgds] in order through [apply], counting each application;
   stops at the first tgd that fails. *)
let rec apply_each stats apply = function
  | [] -> Ok ()
  | tgd :: rest -> (
      match
        wrap_chase (fun () ->
            apply tgd;
            stats.tgds_applied <- stats.tgds_applied + 1)
      with
      | Error msg ->
          Error
            (Printf.sprintf "chase failed on tgd [%s]: %s" (Tgd.to_string tgd)
               msg)
      | Ok () -> apply_each stats apply rest)

(* The functionality egd of a relation: no two of its facts share a key
   with measures that differ.  It names the first violation in key
   order and counts the checks up to it, or every fact.  A relation
   with a view at hand is scanned in the view's key order, comparing
   each row's key codes with the row before it.  Any other is decided
   in one unsorted hashed pass, and only a violating relation is
   sealed into a view and scanned. *)
let check_egd instance (egd : Mappings.Egd.t) stats =
  let rel = egd.Mappings.Egd.relation in
  let violated () =
    let seen : Value.t Tuple.Table.t = Tuple.Table.create 64 in
    try
      Instance.iter_facts instance rel (fun fact ->
          let n = Array.length fact - 1 in
          let key = Tuple.of_array (Array.sub fact 0 n) in
          match Tuple.Table.find_opt seen key with
          | Some other when not (Value.equal other fact.(n)) -> raise_notrace Exit
          | _ -> Tuple.Table.replace seen key fact.(n));
      false
    with Exit -> true
  in
  let first_conflict (v : Cube.view) =
    let order = Cube.key_order v and n = Array.length v.Cube.dicts in
    let rec same_key r p i =
      i = n || (Cube.code v i r = Cube.code v i p && same_key r p (i + 1))
    in
    let rec scan j =
      if j >= v.Cube.size then (v.Cube.size, None)
      else
        let r = order.(j) and p = order.(j - 1) in
        let other = v.Cube.measures.(p) and measure = v.Cube.measures.(r) in
        if same_key r p 0 && not (Value.equal other measure) then
          let key = Tuple.of_array (Array.init n (fun i -> Cube.key_value v i r)) in
          (j + 1, Some (key, other, measure))
        else scan (j + 1)
    in
    scan 1
  in
  let verdict (checked, conflict) =
    stats.egd_checks <- stats.egd_checks + checked;
    match conflict with
    | None -> Ok ()
    | Some (key, other, measure) ->
        Error
          (Printf.sprintf "egd violation: %s has two measures (%s, %s) for %s"
             rel (Value.to_string other) (Value.to_string measure)
             (Tuple.to_string key))
  in
  match Instance.schema instance rel with
  | None -> Ok ()
  | Some _ -> (
      match Instance.cached_view instance rel with
      | Some v -> verdict (first_conflict v)
      | None ->
          if violated () then verdict (first_conflict (Instance.view instance rel))
          else verdict (Instance.cardinality instance rel, None))

let check_target_egds (m : Mappings.Mapping.t) instance stats rels =
  let rec loop = function
    | [] -> Ok ()
    | rel :: rest -> (
        match
          List.find_opt
            (fun (e : Mappings.Egd.t) -> e.Mappings.Egd.relation = rel)
            m.Mappings.Mapping.egds
        with
        | None -> loop rest
        | Some egd -> (
            match check_egd instance egd stats with
            | Ok () -> loop rest
            | Error msg -> Error ("chase failed: " ^ msg)))
  in
  loop (List.sort_uniq String.compare rels)

(* ----- the naive chase (benchmark baseline) ----- *)

(* Textbook naive evaluation over the tgd *set*: every round clears and
   fully re-derives each target from whatever its sources currently
   hold, iterating until a round changes nothing.  Processing order is
   canonical (target name), deliberately blind to the generator's
   topological statement order — the baseline gets no ordering oracle,
   so it converges only after ~depth rounds, re-joining all facts and
   rebuilding its per-application hash indexes every time.  Correct for
   non-monotone operators (aggregation, blackbox) precisely because
   each application starts from a cleared target. *)
let naive_fixpoint (m : Mappings.Mapping.t) target stats =
  let tgds =
    List.stable_sort
      (fun a b -> String.compare (Tgd.target_relation a) (Tgd.target_relation b))
      m.Mappings.Mapping.t_tgds
  in
  let rels = List.map Tgd.target_relation tgds in
  (* Textbook (Jacobi) naive iteration: J_{k+1} = T(J_k).  Every round
     clears the target relations and re-derives them against a frozen
     snapshot of the previous round — no ordering oracle, no
     within-round propagation — so a dependency chain of depth d takes
     d + 2 rounds to converge and be detected.  Depth is bounded by the
     tgd count, hence the round cap. *)
  let max_rounds = List.length tgds + 2 in
  let round () =
    let snapshot = Instance.copy target in
    List.iter (fun rel -> Instance.clear target rel) rels;
    match
      apply_each stats
        (apply_body_full ~matcher:match_atoms ~out:target snapshot stats)
        tgds
    with
    | Error _ as e -> e
    | Ok () ->
        (* fixpoint test: same fact set as the snapshot, per relation *)
        let changed = ref false in
        List.iter
          (fun rel ->
            if not !changed then begin
              let old : unit Tuple.Table.t = Tuple.Table.create 64 in
              Instance.iter_facts snapshot rel (fun f ->
                  Tuple.Table.replace old (Tuple.of_array f) ());
              if Instance.cardinality target rel <> Tuple.Table.length old then
                changed := true
              else
                Instance.iter_facts target rel (fun f ->
                    if not (Tuple.Table.mem old (Tuple.of_array f)) then
                      changed := true)
            end)
          rels;
        Ok !changed
  in
  let rec rounds n =
    if n > max_rounds then Error "naive chase did not reach a fixpoint"
    else begin
      stats.rounds <- stats.rounds + 1;
      match
        Obs.with_span "chase.round"
          ~attrs:[ ("round", string_of_int n); ("mode", "naive") ]
          round
      with
      | Error _ as e -> e
      | Ok true -> rounds (n + 1)
      | Ok false -> Ok ()
    end
  in
  match rounds 1 with
  | Error _ as e -> e
  | Ok () -> check_target_egds m target stats rels

(* ----- the stratified chase ----- *)

(* One full application per tgd, in stratum order: a stratum reads
   only lower strata, so nothing it derives feeds it. *)
let run_stratum ~columnar ~seal instance stats stratum =
  stats.rounds <- stats.rounds + 1;
  Obs.with_span "chase.round" ~attrs:[ ("round", "1") ] (fun () ->
      apply_each stats
        (fun tgd ->
          Obs.with_span "chase.tgd"
            ~attrs:[ ("target", Tgd.target_relation tgd) ]
            (fun () ->
              apply_body_full ~matcher:indexed_matcher ~vectorized:columnar ~seal
                instance stats tgd))
        stratum)

let strata_of m =
  Result.map_error
    (fun msg -> "chase failed: " ^ msg)
    (Mappings.Stratify.strata m)

let run_semi_naive ~columnar (m : Mappings.Mapping.t) target stats =
  let rec loop i = function
    | [] -> Ok ()
    | stratum :: rest -> (
        match
          Obs.with_span "chase.stratum"
            ~attrs:
              [
                ("stratum", string_of_int i);
                ("tgds", string_of_int (List.length stratum));
              ]
            (fun () -> run_stratum ~columnar ~seal:columnar target stats stratum)
        with
        | Error _ as e -> e
        | Ok () -> (
            match
              check_target_egds m target stats
                (List.map Tgd.target_relation stratum)
            with
            | Error _ as e -> e
            | Ok () -> loop (i + 1) rest))
  in
  Result.bind (strata_of m) (loop 0)

(* Σst: copy the source relations into a fresh instance over the target
   schemas (the paper keeps the same symbols for a relation and its
   copy; so do we).  With [columnar] a source relation whose target
   schema matches is installed as the source's column view — O(1),
   the view memoized on the source (on its cube version, for an
   instance [of_registry]) — and its target rows rebuild lazily only if
   something needs tuple-level access; otherwise facts are copied row
   by row. *)
let copy_sources ~columnar (m : Mappings.Mapping.t) source =
  let target = Instance.create () in
  List.iter (Instance.add_relation target) m.Mappings.Mapping.target;
  List.iter
    (fun schema ->
      let name = schema.Schema.name in
      match Instance.schema source name with
      | None -> ()
      | Some src_schema ->
          let shared =
            columnar
            &&
            match Instance.schema target name with
            | Some tgt_schema -> Schema.equal tgt_schema src_schema
            | None -> false
          in
          if shared then Instance.set_view target src_schema (Instance.view source name)
          else
            Instance.iter_facts source name (fun fact ->
                ignore (Instance.insert target name (Array.copy fact) : bool)))
    m.Mappings.Mapping.source;
  target

(* The common shell of [run] and [run_naive]: install Σst, evaluate
   under the "chase.run" span, and flush the counters once per run. *)
let chase_with ~mode ~columnar (m : Mappings.Mapping.t) source evaluate =
  let stats = empty_stats () in
  let target = copy_sources ~columnar m source in
  let builds0, lookups0 = Instance.index_stats target in
  let result =
    Obs.with_span "chase.run"
      ~attrs:
        [
          ("mode", mode);
          ("tgds", string_of_int (List.length m.Mappings.Mapping.t_tgds));
        ]
      ~attrs_after:(fun () ->
        [
          ("rounds", string_of_int stats.rounds);
          ("tuples_generated", string_of_int stats.tuples_generated);
        ])
      (fun () -> evaluate target stats)
  in
  (* Aggregated flush: the hot match loops touch only the local
     [stats] record; the metrics registry sees one update per run. *)
  if Obs.enabled () then begin
    let builds1, lookups1 = Instance.index_stats target in
    Obs.count "chase.runs";
    Obs.count ~n:stats.rounds "chase.rounds";
    Obs.count ~n:stats.matches_examined "chase.matches_examined";
    Obs.count ~n:stats.tuples_generated "chase.tuples_generated";
    Obs.count ~n:stats.tgds_applied "chase.tgds_applied";
    Obs.count ~n:stats.egd_checks "chase.egd_checks";
    Obs.count ~n:stats.nulls_created "chase.nulls_created";
    Obs.count ~n:(builds1 - builds0) "chase.index_builds";
    Obs.count ~n:(lookups1 - lookups0) "chase.index_lookups"
  end;
  Result.map (fun () -> (target, stats)) result

let run ?(columnar = true) m source =
  chase_with ~mode:"semi_naive" ~columnar m source (fun target stats ->
      run_semi_naive ~columnar m target stats)

let run_naive m source =
  chase_with ~mode:"naive" ~columnar:false m source (fun target stats ->
      Result.bind (strata_of m) (fun _ -> naive_fixpoint m target stats))

(* ----- incremental re-evaluation from fact deltas ----- *)

type fact_delta = { added : Instance.fact list; removed : Instance.fact list }

let empty_delta = { added = []; removed = [] }

type incr_stats = {
  mutable input_facts : int;
  mutable strata_total : int;
  mutable strata_skipped : int;
  mutable strata_delta : int;
  mutable strata_rederived : int;
  mutable facts_rederived : int;
}

let empty_incr_stats () =
  {
    input_facts = 0;
    strata_total = 0;
    strata_skipped = 0;
    strata_delta = 0;
    strata_rederived = 0;
    facts_rederived = 0;
  }

(* The tgds of [stratum] that must re-run: those a delta reaches. *)
let select_touched stratum ~touched =
  List.filter
    (fun tgd -> List.exists touched (Tgd.source_relations tgd))
    stratum

(* DRed-style stratum rederivation, for tgds with no delta plan
   (blackbox and outer combine): over-delete their targets entirely,
   re-run them from their (already updated) sources, then diff old vs
   new facts to get a compact delta for the strata above. *)
let incr_rederive_stratum instance stats istats selected =
  let targets = List.map Tgd.target_relation selected in
  let old =
    List.map
      (fun rel ->
        let tbl : unit Tuple.Table.t = Tuple.Table.create 64 in
        let facts = ref [] in
        Instance.iter_facts instance rel (fun f ->
            Tuple.Table.replace tbl (Tuple.of_array f) ();
            facts := f :: !facts);
        (rel, tbl, !facts))
      targets
  in
  List.iter (fun rel -> Instance.clear instance rel) targets;
  (* Vectorized like a full run: the cached solution this repairs was
     produced by the (columnar-default) [run], and the incremental
     speedup floor is measured against that same baseline.  Unsealed:
     the diff below and every later batch read the targets row by row. *)
  match run_stratum ~columnar:true ~seal:false instance stats selected with
  | Error _ as e -> e
  | Ok () ->
      Ok
        (List.filter_map
           (fun (rel, old_tbl, old_facts) ->
             let added = ref [] in
             Instance.iter_facts instance rel (fun f ->
                 istats.facts_rederived <- istats.facts_rederived + 1;
                 if not (Tuple.Table.mem old_tbl (Tuple.of_array f)) then
                   added := f :: !added);
             let removed =
               List.filter (fun f -> not (Instance.mem instance rel f)) old_facts
             in
             if !added = [] && removed = [] then None
             else Some (rel, { added = !added; removed }))
           old)

(* ----- group-scoped aggregation rederivation ----- *)

(* Per-aggregation-tgd incremental state: each group key maps to the
   multiset of measures currently contributing to it.  Built with one
   full source scan the first time a batch touches the tgd and
   maintained by deltas afterwards, so steady-state batches
   re-aggregate only the groups their delta facts fall in instead of
   rescanning the whole source relation DRed-style.  Bags accumulate
   newest-first and are reversed before [Stats.Aggregate.apply], so
   sums may re-associate relative to a from-scratch run — callers
   comparing solutions must use an epsilon. *)
type agg_bags = float list ref Tuple.Table.t

(* Per-tuple-level-tgd incremental state: each target fact maps to the
   number of lhs matches deriving it.  Same lifecycle as the bags. *)
type counts = int Tuple.Table.t

type incr_state = {
  bags : (string, agg_bags) Hashtbl.t;
  counts : (string, counts) Hashtbl.t;
}
(* Both keyed by the tgd's target relation: a relation has one writer
   ([Stratify] refuses a second), so its name names the tgd. *)

let create_incr_state () =
  { bags = Hashtbl.create 8; counts = Hashtbl.create 8 }

let fact_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (Value.equal v b.(i)) then ok := false) a;
  !ok

(* Float.compare so a NaN measure still finds its bag entry. *)
let remove_once bag m =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
        if Float.compare x m = 0 then List.rev_append acc rest
        else go (x :: acc) rest
  in
  go [] bag

let build_agg_bags instance stats (source : Tgd.atom) group_by measure =
  let bags : agg_bags = Tuple.Table.create 64 in
  let classify = agg_classify source group_by measure in
  Instance.iter_facts instance source.Tgd.rel (fun fact ->
      stats.matches_examined <- stats.matches_examined + 1;
      match classify fact with
      | None -> ()
      | Some (key, m) -> (
          match Tuple.Table.find_opt bags key with
          | Some bag -> bag := m :: !bag
          | None -> Tuple.Table.replace bags key (ref [ m ])));
  bags

(* One aggregation tgd, group-scoped: update the measure bags with the
   source delta, re-aggregate only the affected groups and replace
   their target facts in place.  When the bags were just built
   ([fresh]) the source already includes the delta, so the delta facts
   only name the affected groups.  Returns the compact target delta. *)
let incr_agg_tgd instance stats istats bags ~fresh (source : Tgd.atom) group_by
    aggr measure target ~(delta : fact_delta) =
  let affected : unit Tuple.Table.t = Tuple.Table.create 8 in
  let classify =
    let classify = agg_classify source group_by measure in
    fun fact ->
      stats.matches_examined <- stats.matches_examined + 1;
      classify fact
  in
  List.iter
    (fun fact ->
      match classify fact with
      | None -> ()
      | Some (key, m) ->
          Tuple.Table.replace affected key ();
          if not fresh then (
            match Tuple.Table.find_opt bags key with
            | Some bag ->
                bag := remove_once !bag m;
                if !bag = [] then Tuple.Table.remove bags key
            | None -> ()))
    delta.removed;
  List.iter
    (fun fact ->
      match classify fact with
      | None -> ()
      | Some (key, m) ->
          Tuple.Table.replace affected key ();
          if not fresh then (
            match Tuple.Table.find_opt bags key with
            | Some bag -> bag := m :: !bag
            | None -> Tuple.Table.replace bags key (ref [ m ])))
    delta.added;
  let key_positions = List.init (List.length group_by) Fun.id in
  Instance.ensure_index instance target key_positions;
  let added = ref [] and removed = ref [] in
  Tuple.Table.iter
    (fun key () ->
      let old_facts =
        Instance.lookup_index instance target key_positions (Tuple.to_list key)
      in
      let next =
        match Tuple.Table.find_opt bags key with
        | None -> None
        | Some bag ->
            let result = Stats.Aggregate.apply aggr (List.rev !bag) in
            if Float.is_nan result then None
            else
              Some
                (Array.of_list (Tuple.to_list key @ [ Value.of_float result ]))
      in
      List.iter
        (fun old ->
          let keep =
            match next with Some f -> fact_equal old f | None -> false
          in
          if (not keep) && Instance.remove instance target old then
            removed := old :: !removed)
        old_facts;
      match next with
      | Some f ->
          if Instance.insert instance target f then begin
            stats.tuples_generated <- stats.tuples_generated + 1;
            istats.facts_rederived <- istats.facts_rederived + 1;
            added := f :: !added
          end
      | None -> ())
    affected;
  { added = !added; removed = !removed }

(* ----- signed-delta repair of tuple-level tgds ----- *)

let bump table fact n =
  Tuple.Table.replace table fact
    (n + Option.value ~default:0 (Tuple.Table.find_opt table fact))

(* The order to enumerate [atoms] in, with its estimated cost: each
   atom is tried first, followed greedily by the atoms that can be
   probed, and the cheapest estimate wins — a scan costs the atom's
   size times the enumerations before it, a probe one per enumeration
   — ties going to the earliest first atom. *)
let order_plan instance (atoms : (Tgd.atom * atom_source) list) =
  let size ((a : Tgd.atom), source) =
    float_of_int
      (match source with
      | Delta b -> List.length b.facts
      | Full -> Instance.cardinality instance a.Tgd.rel
      | Old view ->
          Instance.cardinality instance a.Tgd.rel
          + List.length view.restored.facts)
  in
  let greedy first =
    let rec go bound acc = function
      | [] -> List.rev acc
      | remaining ->
          let next =
            match
              List.find_opt
                (fun (a, _) -> determined_positions bound a <> [])
                remaining
            with
            | Some e -> e
            | None -> List.hd remaining
          in
          go
            (extend_bound_vars bound (fst next))
            (next :: acc)
            (List.filter (fun e -> e != next) remaining)
    in
    go (extend_bound_vars [] (fst first)) [ first ]
      (List.filter (fun e -> e != first) atoms)
  in
  let cost order =
    let rec go bound outer acc = function
      | [] -> acc
      | ((a, _) as e) :: rest ->
          let bound' = extend_bound_vars bound a in
          if determined_positions bound a = [] then
            let n = outer *. size e in
            go bound' n (acc +. n) rest
          else go bound' outer (acc +. outer) rest
    in
    go [] 1. 0. order
  in
  List.fold_left
    (fun best e ->
      let order = greedy e in
      let c = cost order in
      match best with Some (_, c') when c' <= c -> best | _ -> Some (order, c))
    None atoms
  |> Option.get

(* The plan of pivot [i]: atom [i] over the delta [facts], earlier
   atoms over the current state, later ones over the old state.
   Enumerating the pivot first is the textbook order, but it leaves the
   next atom without a probe key when the pivot binds the join
   variables only under a complex term (the pivot GDPT(q + 1, m) of
   GDPT(q + 1, m) ∧ GDPT(q, m')): every delta fact would scan the other
   relation.  [order_plan] then puts the other atom first and probes
   the pivot through its bucketed delta. *)
let pivot_plan instance lhs i facts ~old_of =
  let atoms =
    List.mapi
      (fun j (a : Tgd.atom) ->
        if j = i then (a, Delta (bag facts))
        else if j < i then (a, Full)
        else (a, Old (old_of a.Tgd.rel)))
      lhs
  in
  order_plan instance
    (List.nth atoms i :: List.filteri (fun j _ -> j <> i) atoms)

(* One tuple-level tgd, repaired by derivation counting (Gupta, Mumick
   & Subrahmanian, SIGMOD 1993).  [counts] maps each target fact to the
   number of lhs matches deriving it.  With old = new − added + removed
   per relation, Q(new) − Q(old) telescopes to Σᵢ Q(new<i, Δᵢ, old>i):
   the pivot atom i ranges over its relation's added facts (+1) and
   removed facts (−1), the atoms before it over the current state and
   those after it over the old state.  A target fact is inserted when
   its count rises from 0 and removed when it falls to 0, so the repair
   costs what the delta reaches.

   The counts are recounted over the current state instead, and
   diffed against the old ones, when the pivot plans are estimated
   dearer than that (a table function upstream rewrote its whole
   output) and when there are no counts yet — then the target
   relation itself holds the old facts.  Returns the target's net
   delta and the new counts. *)
let incr_signed_tgd instance stats istats counts lhs (rhs : Tgd.atom)
    ~delta_of ~old_of =
  let rel = rhs.Tgd.rel in
  let derive plan sign table =
    match_plan instance stats plan (fun binding ->
        Option.iter
          (fun fact -> bump table (Tuple.of_array fact) sign)
          (rhs_fact binding rhs))
  in
  let added = ref [] and removed = ref [] in
  let insert (fact : Tuple.t) =
    let f = (fact :> Value.t array) in
    if Instance.insert instance rel f then begin
      count_new stats rel;
      istats.facts_rederived <- istats.facts_rederived + 1;
      added := f :: !added
    end
  in
  let remove f =
    if Instance.remove instance rel f then removed := f :: !removed
  in
  let recount, recount_cost =
    order_plan instance (List.map (fun a -> (a, Full)) lhs)
  in
  let recount_diff ~old_mem ~old_iter =
    let fresh : counts = Tuple.Table.create 64 in
    derive recount 1 fresh;
    let stale = ref [] in
    old_iter (fun f ->
        if not (Tuple.Table.mem fresh (Tuple.of_array f)) then
          stale := f :: !stale);
    List.iter remove !stale;
    Tuple.Table.iter
      (fun fact _ -> if not (old_mem fact) then insert fact)
      fresh;
    fresh
  in
  (* The pivot plans, planned only while their estimate stays below
     recounting's. *)
  let rec pivots budget acc = function
    | [] -> Some acc
    | (i, sign, facts) :: rest ->
        let plan, cost = pivot_plan instance lhs i facts ~old_of in
        if cost > budget then None
        else pivots (budget -. cost) ((plan, sign) :: acc) rest
  in
  let deltas =
    List.concat
      (List.mapi
         (fun i (a : Tgd.atom) ->
           let d = delta_of a.Tgd.rel in
           List.filter
             (fun (_, _, facts) -> facts <> [])
             [ (i, 1, d.added); (i, -1, d.removed) ])
         lhs)
  in
  let counts =
    match counts with
    | None ->
        recount_diff
          ~old_mem:(fun fact ->
            Instance.mem instance rel (fact :> Value.t array))
          ~old_iter:(Instance.iter_facts instance rel)
    | Some counts -> (
        match
          pivots
            (recount_cost +. float_of_int (Tuple.Table.length counts))
            [] deltas
        with
        | None ->
            recount_diff ~old_mem:(Tuple.Table.mem counts) ~old_iter:(fun k ->
                Tuple.Table.iter
                  (fun fact _ -> k (fact :> Value.t array))
                  counts)
        | Some plans ->
            let change : int Tuple.Table.t = Tuple.Table.create 16 in
            List.iter (fun (plan, sign) -> derive plan sign change) plans;
            Tuple.Table.iter
              (fun fact n ->
                if n <> 0 then begin
                  let before =
                    Option.value ~default:0 (Tuple.Table.find_opt counts fact)
                  in
                  let after = before + n in
                  if after < 0 then
                    raise
                      (Chase_error ("derivation count below zero in " ^ rel));
                  if after = 0 then Tuple.Table.remove counts fact
                  else Tuple.Table.replace counts fact after;
                  if before = 0 then insert fact
                  else if after = 0 then remove (fact :> Value.t array)
                end)
              change;
            counts)
  in
  ({ added = !added; removed = !removed }, counts)

let incremental ~state (m : Mappings.Mapping.t) ~solution ~deltas =
  let unknown =
    List.filter (fun (rel, _) -> Instance.schema solution rel = None) deltas
  in
  let rels = List.map fst deltas in
  match (unknown, strata_of m) with
  | (rel, _) :: _, _ ->
      Error
        (Printf.sprintf
           "incremental chase: relation %s is not part of the solution" rel)
  | [], _
    when List.length (List.sort_uniq String.compare rels) < List.length rels ->
      (* The signed plans read each relation's old state off its net
         change, which two deltas applied in turn would not give. *)
      Error "incremental chase: more than one delta for a relation"
  | [], (Error _ as e) -> e
  | [], Ok strata ->
      let stats = empty_stats () in
      let istats = empty_incr_stats () in
      (* Net change map, grown stratum by stratum as deltas
         propagate upward. *)
      let current : (string, fact_delta) Hashtbl.t = Hashtbl.create 16 in
      let merge rel d =
        if d.added <> [] || d.removed <> [] then
          let prev =
            Option.value ~default:empty_delta (Hashtbl.find_opt current rel)
          in
          Hashtbl.replace current rel
            {
              added = d.added @ prev.added;
              removed = d.removed @ prev.removed;
            }
      in
      (* Apply the input deltas to the previous solution; only
         facts genuinely removed/added (set semantics) propagate. *)
      Obs.with_span "chase.incr.input"
        ~attrs_after:(fun () ->
          [ ("delta_facts", string_of_int istats.input_facts) ])
        (fun () ->
          List.iter
            (fun (rel, d) ->
              let removed =
                List.filter (fun f -> Instance.remove solution rel f) d.removed
              in
              let added =
                List.filter (fun f -> Instance.insert solution rel f) d.added
              in
              merge rel { added; removed })
            deltas;
          istats.input_facts <-
            Hashtbl.fold
              (fun _ d acc ->
                acc + List.length d.added + List.length d.removed)
              current 0);
      let touched rel = Hashtbl.mem current rel in
      let builds0, lookups0 = Instance.index_stats solution in
      let run_stratum_incr i stratum =
        istats.strata_total <- istats.strata_total + 1;
        let selected = select_touched stratum ~touched in
        if selected = [] then begin
          istats.strata_skipped <- istats.strata_skipped + 1;
          Obs.count "chase.incr.strata_skipped";
          Ok []
        end
        else begin
          (* Per-tgd plan, fixed by its shape: a tuple-level tgd is
             repaired by signed delta, an aggregation re-aggregates
             its affected groups, and a blackbox or outer combine
             rederives DRed-style.  A tgd that keeps state is
             therefore never rederived. *)
          let keeps_state = function
            | Tgd.Tuple_level _ | Tgd.Aggregation _ -> true
            | Tgd.Table_fn _ | Tgd.Outer_combine _ -> false
          in
          let kept, rederive = List.partition keeps_state selected in
          let mode = if rederive <> [] then "rederive" else "delta" in
          if rederive <> [] then
            istats.strata_rederived <- istats.strata_rederived + 1
          else istats.strata_delta <- istats.strata_delta + 1;
          Obs.with_span "chase.stratum"
            ~attrs:
              [
                ("stratum", string_of_int i);
                ("tgds", string_of_int (List.length selected));
                ("mode", mode);
              ]
            (fun () ->
              let ( let* ) = Result.bind in
              (* Rederive first — it clears its targets wholesale;
                 the other plans touch disjoint targets and read
                 only lower strata. *)
              let* out1 =
                if rederive = [] then Ok []
                else
                  incr_rederive_stratum solution stats istats rederive
              in
              let delta_of rel =
                Option.value ~default:empty_delta (Hashtbl.find_opt current rel)
              in
              let views : (string, old_view) Hashtbl.t = Hashtbl.create 8 in
              let old_of rel =
                match Hashtbl.find_opt views rel with
                | Some v -> v
                | None ->
                    let d = delta_of rel in
                    let v = old_view ~added:d.added ~removed:d.removed in
                    Hashtbl.replace views rel v;
                    v
              in
              let* out2 =
                if kept = [] then Ok []
                else
                  let outs = ref [] in
                  let out target d =
                    if d.added <> [] || d.removed <> [] then
                      outs := (target, d) :: !outs
                  in
                  Result.map
                    (fun () -> !outs)
                    (wrap_chase (fun () ->
                         List.iter
                           (fun tgd ->
                             let key = Tgd.target_relation tgd in
                             (match tgd with
                             | Tgd.Aggregation
                                 { source; group_by; aggr; measure; target }
                               ->
                                 let bags, fresh =
                                   match Hashtbl.find_opt state.bags key with
                                   | Some bags -> (bags, false)
                                   | None ->
                                       let bags =
                                         build_agg_bags solution stats
                                           source group_by measure
                                       in
                                       Hashtbl.replace state.bags key bags;
                                       (bags, true)
                                 in
                                 out target
                                   (incr_agg_tgd solution stats istats bags
                                      ~fresh source group_by aggr measure
                                      target ~delta:(delta_of source.Tgd.rel))
                             | Tgd.Tuple_level { lhs; rhs } ->
                                 let d, counts =
                                   incr_signed_tgd solution stats istats
                                     (Hashtbl.find_opt state.counts key)
                                     lhs rhs ~delta_of ~old_of
                                 in
                                 Hashtbl.replace state.counts key counts;
                                 out rhs.Tgd.rel d
                             | _ -> assert false);
                             stats.tgds_applied <- stats.tgds_applied + 1)
                           kept))
              in
              let* () =
                check_target_egds m solution stats
                  (List.map Tgd.target_relation selected)
              in
              Ok (out1 @ out2))
        end
      in
      let rec loop i = function
        | [] -> Ok ()
        | stratum :: rest -> (
            match run_stratum_incr i stratum with
            | Error _ as e -> e
            | Ok out ->
                List.iter (fun (rel, d) -> merge rel d) out;
                loop (i + 1) rest)
      in
      let result =
        Obs.with_span "chase.incremental"
          ~attrs:
            [ ("delta_facts", string_of_int istats.input_facts) ]
          ~attrs_after:(fun () ->
            [
              ("strata_skipped", string_of_int istats.strata_skipped);
              ("facts_rederived", string_of_int istats.facts_rederived);
            ])
          (fun () -> loop 0 strata)
      in
      if Obs.enabled () then begin
        let builds1, lookups1 = Instance.index_stats solution in
        Obs.count "chase.incr.runs";
        Obs.count ~n:istats.input_facts "chase.incr.input_facts";
        Obs.count ~n:istats.facts_rederived "chase.incr.facts_rederived";
        Obs.count ~n:stats.matches_examined "chase.matches_examined";
        Obs.count ~n:stats.tuples_generated "chase.tuples_generated";
        Obs.count ~n:stats.tgds_applied "chase.tgds_applied";
        Obs.count ~n:stats.egd_checks "chase.egd_checks";
        Obs.count ~n:stats.nulls_created "chase.nulls_created";
        Obs.count ~n:(builds1 - builds0) "chase.index_builds";
        Obs.count ~n:(lookups1 - lookups0) "chase.index_lookups"
      end;
      Result.map
        (fun () ->
          ( stats,
            istats,
            Hashtbl.fold (fun rel d acc -> (rel, d) :: acc) current []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b) ))
        result
