(* exl-opt: the containment-based mapping optimizer.

   A static pass between mapping generation and the chase.  Four
   rewrites, every one carrying a machine-checkable certificate in the
   style of the weak-acyclicity rank certificate:

   - I302  drop a redundant body atom (core folding witness);
   - I303  merge duplicate functional body atoms (egd justification);
   - I304  fuse a temporary into its consumer(s), gated by a cost
           model; proved by unfolding consumer by consumer when each
           is tuple-level or an aggregation and every side condition
           holds, otherwise checked by chasing both mappings on a
           critical instance;
   - I305  specialize an outer combine whose sides share one relation
           (equal grids, so the default is dead) to a tuple-level tgd;
   - I306  discharge a functionality egd implied by its defining tgd
           (determination chain).

   [verify] re-validates every certificate independently of the code
   that produced it, and replays the action log onto the original
   mapping, which must give the optimized one. *)

module Tgd = Mappings.Tgd
module Term = Mappings.Term
module Egd = Mappings.Egd
module Mapping = Mappings.Mapping
module Fuse = Mappings.Fuse
open Matrix

(* --- cost model ------------------------------------------------------ *)

(* Estimated matches_examined: the first body atom is scanned, each
   further atom costs its full cardinality for a cross join but only a
   small constant when it shares a variable with the atoms before it
   (the chase probes a persistent index).  Derived cardinalities are
   propagated bottom-up in stratification order. *)

let default_card = 64
let kappa = 2

let card env rel = Option.value ~default:default_card (Hashtbl.find_opt env rel)

let est_tuple_body env (lhs : Tgd.atom list) =
  match lhs with
  | [] -> 1
  | first :: rest ->
      let bound = ref (Tgd.atom_vars first) in
      List.fold_left
        (fun acc (a : Tgd.atom) ->
          let vars = Tgd.atom_vars a in
          let shared = List.exists (fun v -> List.mem v !bound) vars in
          bound := vars @ !bound;
          acc * if shared then kappa else card env a.Tgd.rel)
        (card env first.Tgd.rel)
        rest

let est_tgd env = function
  | Tgd.Tuple_level { lhs; _ } -> est_tuple_body env lhs
  | Tgd.Aggregation { source; _ } -> card env source.Tgd.rel
  | Tgd.Table_fn { source; _ } -> card env source
  | Tgd.Outer_combine { left; right; _ } ->
      card env left.Tgd.rel + card env right.Tgd.rel

let out_card env = function
  | Tgd.Tuple_level { lhs = []; _ } -> 1
  | Tgd.Tuple_level { lhs = first :: _; _ } -> card env first.Tgd.rel
  | Tgd.Aggregation { source; _ } -> max 1 (card env source.Tgd.rel / 4)
  | Tgd.Table_fn { source; _ } -> card env source
  | Tgd.Outer_combine { left; right; _ } ->
      max (card env left.Tgd.rel) (card env right.Tgd.rel)

let cost_env ?(cards = []) (m : Mapping.t) =
  let env = Hashtbl.create 16 in
  List.iter (fun (r, c) -> Hashtbl.replace env r c) cards;
  List.iter
    (fun tgd ->
      let tgt = Tgd.target_relation tgd in
      if not (Hashtbl.mem env tgt) then
        Hashtbl.replace env tgt (out_card env tgd))
    m.Mapping.t_tgds;
  env

(* Estimated chase cost (matches examined plus tuples generated):
   default cardinality 64 per source relation, joins on shared
   variables probe an index. *)
let estimate ?cards (m : Mapping.t) =
  let env = cost_env ?cards m in
  List.fold_left
    (fun acc tgd -> acc + est_tgd env tgd + out_card env tgd)
    0 m.Mapping.t_tgds

(* --- the critical instance ------------------------------------------- *)

(* A small synthetic source instance exercising every dimension domain:
   four consecutive periods (so shift joins up to distance three hit
   both matches and boundaries), four days straddling a quarter
   boundary (so calendar roll-ups collapse unevenly), two categorical
   values per string/int dimension, and pairwise-distinct measures (so
   grouping or join mistakes change some output).  Chasing original
   and optimized mappings over it and diffing the solutions is the
   equivalence evidence fusion certificates carry. *)

let dim_values (d : Domain.t) =
  match d with
  | Domain.String -> [ Value.String "a"; Value.String "b" ]
  | Domain.Int -> [ Value.Int 1; Value.Int 2 ]
  | Domain.Float -> [ Value.Float 1.5; Value.Float 2.5 ]
  | Domain.Bool -> [ Value.Bool true; Value.Bool false ]
  | Domain.Date ->
      (* twelve dates a quarter apart, covering the same twelve
         quarters as the Period domain so calendar roll-ups of date
         data produce full-length quarterly series *)
      let base = Calendar.Date.make ~year:2020 ~month:1 ~day:15 in
      List.init 12 (fun i -> Value.Date (Calendar.Date.add_days base (91 * i)))
  | Domain.Period f ->
      (* consecutive periods: enough for shift joins at several
         distances and — when the cycle is short enough — for blackbox
         seasonal decompositions, which need two full cycles.  Capped
         at 30 values: weekly/daily decompositions stay unchaseable on
         the critical instance instead of blowing up the instance.
         There the fusions that need a chase (into table functions and
         outer combines, or failing a side condition of the unfolding
         proof) are rejected; the others are still proved by
         unfolding. *)
      let freq = Option.value ~default:Calendar.Quarter f in
      let count =
        match Calendar.periods_per_year freq with
        | Some ppy -> max 12 (min 30 ((2 * ppy) + 2))
        | None -> 12
      in
      let base =
        Calendar.Period.of_date freq
          (Calendar.Date.make ~year:2020 ~month:1 ~day:1)
      in
      List.init count (fun i -> Value.Period (Calendar.Period.shift base i))
  | Domain.Any -> [ Value.Int 0 ]

(* Constants mentioned by the mapping's dependencies.  The synthetic
   dimension values ("a", "b", 1, 2, ...) never collide with program
   constants, so without these a selection like
   [DEPOSITS(m, s, "overnight", y)] would match nothing on the critical
   instance and any rewrite discarding the selection would pass the
   equivalence check vacuously. *)
let rec term_consts (t : Term.t) =
  match t with
  | Term.Const v -> [ v ]
  | Term.Var _ -> []
  | Term.Shifted (a, _) | Term.Dim_fn (_, a) | Term.Scalar_fn (_, _, a)
  | Term.Neg a ->
      term_consts a
  | Term.Binapp (_, a, b) | Term.Coalesce (a, b) ->
      term_consts a @ term_consts b

let mapping_consts (m : Mapping.t) =
  let atom_consts (a : Tgd.atom) = List.concat_map term_consts a.Tgd.args in
  let tgd_consts = function
    | Tgd.Tuple_level { lhs; rhs } -> List.concat_map atom_consts (rhs :: lhs)
    | Tgd.Aggregation { source; group_by; _ } ->
        atom_consts source @ List.concat_map term_consts group_by
    | Tgd.Table_fn _ -> []
    | Tgd.Outer_combine { left; right; _ } ->
        atom_consts left @ atom_consts right
  in
  List.sort_uniq Value.compare
    (List.concat_map tgd_consts (m.Mapping.st_tgds @ m.Mapping.t_tgds))

(* The synthetic source instance equivalence checks chase over: the
   cartesian product of small per-domain dimension sets (four
   consecutive periods, dates straddling a quarter boundary, two values
   per categorical domain) with pairwise-distinct measures.  Each
   relation is written straight into a column view, so every chase
   over the instance installs it as is. *)
let critical_instance (m : Mapping.t) =
  let inst = Exchange.Instance.create () in
  let consts = mapping_consts m in
  let counter = ref 0 in
  List.iter
    (fun (s : Schema.t) ->
      Exchange.Instance.add_relation inst s;
      let facts = Cube.builder (Schema.arity s) in
      let dims = Array.to_list s.Schema.dims in
      let rec keys = function
        | [] -> [ [] ]
        | d :: rest ->
            let dom = d.Schema.dim_domain in
            let extra =
              List.filter
                (fun v ->
                  (not (Value.is_null v))
                  && Domain.member v dom
                  && not (List.exists (Value.equal v) (dim_values dom)))
                consts
            in
            let vs = dim_values dom @ extra in
            List.concat_map
              (fun v -> List.map (fun k -> v :: k) (keys rest))
              vs
      in
      List.iter
        (fun key ->
          incr counter;
          Cube.add facts
            (Array.of_list (key @ [ Value.Float (2.0 +. (1.37 *. float_of_int !counter)) ])))
        (keys dims);
      Exchange.Instance.set_view inst s (Cube.seal facts))
    m.Mapping.source;
  inst

let value_close a b =
  Value.equal a b
  ||
  match (Value.to_float a, Value.to_float b) with
  | Some x, Some y ->
      Float.abs (x -. y) <= 1e-9 *. (1. +. Float.max (Float.abs x) (Float.abs y))
  | _ -> false

(* Row [r1] of [v1] and row [r2] of [v2] hold the same fact, up to
   [value_close], read off the views without decoding either row. *)
let row_close (v1 : Cube.view) r1 (v2 : Cube.view) r2 =
  let n = Array.length v1.Cube.dicts in
  let rec keys i =
    i = n || (value_close (Cube.key_value v1 i r1) (Cube.key_value v2 i r2) && keys (i + 1))
  in
  n = Array.length v2.Cube.dicts
  && keys 0
  && value_close v1.Cube.measures.(r1) v2.Cube.measures.(r2)

let fact_to_string f =
  "("
  ^ String.concat ", " (Array.to_list (Array.map Value.to_string f))
  ^ ")"

(* Compare the chased solutions [j1] (of the original mapping) and [j2]
   (of [m2]) on [m2]'s target relations — the original may
   additionally hold temporaries, exactly the non-core facts the
   optimizer removes.  Each relation's two views are walked side by
   side in key order, which is sorted fact order.  A relation for
   which [unchanged] holds is known to carry the same facts in both:
   it counts its cardinality towards [facts_compared] and is not read.
   [Ok facts_compared] or the first difference.  The
   "optimize.facts_compared" counter adds the facts actually
   compared. *)
let compare_solutions ?(unchanged = fun _ -> false) j1 j2 (m2 : Mapping.t) :
    (int, string) result =
  let compared = ref 0 and read = ref 0 in
  let mismatch =
    List.find_map
      (fun (s : Schema.t) ->
        let rel = s.Schema.name in
        if unchanged rel then begin
          compared := !compared + Exchange.Instance.cardinality j1 rel;
          None
        end
        else
          let v1 = Exchange.Instance.view j1 rel and v2 = Exchange.Instance.view j2 rel in
          let n1 = v1.Cube.size and n2 = v2.Cube.size in
          compared := !compared + n1;
          read := !read + n1;
          if n1 <> n2 then
            Some (Printf.sprintf "%s: %d facts before vs %d after" rel n1 n2)
          else
            let o1 = Cube.key_order v1 and o2 = Cube.key_order v2 in
            let rec first j =
              if j = n1 then None
              else if row_close v1 o1.(j) v2 o2.(j) then first (j + 1)
              else
                Some
                  (Printf.sprintf "%s: %s vs %s" rel
                     (fact_to_string (Cube.row v1 o1.(j)))
                     (fact_to_string (Cube.row v2 o2.(j))))
            in
            first 0)
      m2.Mapping.target
  in
  Obs.count ~n:!read "optimize.facts_compared";
  match mismatch with
  | Some msg -> Error ("solutions differ on critical instance: " ^ msg)
  | None -> Ok !compared

let original_failed e = Error ("original mapping failed on critical instance: " ^ e)

(* Chase [m2] in full over [inst] and compare it with [j1], the
   original's solution over the same instance. *)
let chase_and_compare j1 (m2 : Mapping.t) inst =
  match Exchange.Chase.run m2 inst with
  | Error e -> (Error ("optimized mapping failed on critical instance: " ^ e), None)
  | Ok (j2, _) -> (compare_solutions j1 j2 m2, Some j2)

(* Chase both mappings over the critical instance of [m1] and diff the
   solutions on [m2]'s target relations. *)
let equivalent_on_critical (m1 : Mapping.t) (m2 : Mapping.t) :
    (int, string) result =
  let inst = critical_instance m1 in
  match Exchange.Chase.run m1 inst with
  | Error e -> original_failed e
  | Ok (j1, _) -> fst (chase_and_compare j1 m2 inst)

(* --- certificates and actions ---------------------------------------- *)

type certificate =
  | Fold_witness of {
      dropped : Tgd.atom;
      onto : Tgd.atom;
      hom : Containment.homomorphism;
    }
  | Egd_merge of { relation : string; dropped_var : string; kept_var : string }
  | Fusion_equivalence of { producer : Tgd.t; facts_compared : int }
  | Unfolding of {
      producer : Tgd.t;
      unifier : Containment.homomorphism;
      chain : string list;
    }
  | Grid_equality of { relation : string }
  | Determination of { chain : string list }

type action = {
  code : string;
  target : string;
  detail : string;
  before : Tgd.t option;
  after : Tgd.t option;
  certificate : certificate;
}

type report = {
  original : Mapping.t;
  optimized : Mapping.t;
  actions : action list;
  est_before : int;
  est_after : int;
  fused : bool;
}

(* --- pass 1: body minimization (I302, I303) --------------------------- *)

let subst_var v replacement (a : Tgd.atom) =
  let f x = if x = v then Some replacement else None in
  { a with Tgd.args = List.map (Term.substitute f) a.Tgd.args }

(* A body relation is functional when the (original) mapping declares
   its egd or when it is a source cube, whose store is keyed by
   dimensions by construction. *)
let functional_rel (original : Mapping.t) rel =
  List.exists (fun (e : Egd.t) -> e.Egd.relation = rel) original.Mapping.egds
  || List.exists
       (fun (s : Schema.t) -> s.Schema.name = rel)
       original.Mapping.source

let minimize_tgd push ~original (tgd : Tgd.t) =
  let rec loop tgd =
    match tgd with
    | Tgd.Tuple_level { lhs; rhs } -> (
        let merge =
          match Containment.mergeable_atoms ~body:lhs with
          | Some (kept, dropped, dropped_var, kept_var)
            when functional_rel original kept.Tgd.rel ->
              Some (kept, dropped, dropped_var, kept_var)
          | _ -> None
        in
        match merge with
        | Some (kept, dropped, dropped_var, kept_var) ->
            let body =
              List.filter_map
                (fun a ->
                  if a == dropped then None
                  else Some (subst_var dropped_var (Term.Var kept_var) a))
                lhs
            in
            let rhs' = subst_var dropped_var (Term.Var kept_var) rhs in
            let after = Tgd.Tuple_level { lhs = body; rhs = rhs' } in
            push
              {
                code = "I303";
                target = rhs.Tgd.rel;
                detail =
                  Printf.sprintf
                    "merged duplicate %s atoms in the body of %s: egd forces \
                     %s = %s"
                    kept.Tgd.rel rhs.Tgd.rel dropped_var kept_var;
                before = Some tgd;
                after = Some after;
                certificate =
                  Egd_merge { relation = kept.Tgd.rel; dropped_var; kept_var };
              };
            loop after
        | None -> (
            let fold =
              List.find_map
                (fun a ->
                  Option.map
                    (fun (onto, hom) -> (a, onto, hom))
                    (Containment.redundant_atom ~head:rhs ~body:lhs a))
                lhs
            in
            match fold with
            | Some (a, onto, hom) ->
                let after =
                  Tgd.Tuple_level
                    { lhs = List.filter (fun b -> not (b == a)) lhs; rhs }
                in
                push
                  {
                    code = "I302";
                    target = rhs.Tgd.rel;
                    detail =
                      Printf.sprintf
                        "dropped redundant body atom %s of %s: folds onto %s \
                         with h = %s"
                        (Tgd.atom_to_string a) rhs.Tgd.rel
                        (Tgd.atom_to_string onto)
                        (Containment.hom_to_string hom);
                    before = Some tgd;
                    after = Some after;
                    certificate = Fold_witness { dropped = a; onto; hom };
                  };
                loop after
            | None -> tgd))
    | _ -> tgd
  in
  loop tgd

let minimize_all push ~original (m : Mapping.t) =
  {
    m with
    Mapping.t_tgds = List.map (minimize_tgd push ~original) m.Mapping.t_tgds;
  }

(* --- fusion checks against one base solution ------------------------- *)

(* [fuse_all] checks each candidate [next] against the current mapping
   [m] it was derived from.  A candidate whose every consumer, whether
   tuple-level or an aggregation, passes the unfolding proof below is
   proved with no chase; the others are checked on the critical
   instance.  The critical instance and [m]'s solution over it are the
   same for every candidate, so the base keeps both, chased once and
   lazily: a run whose candidates are all unfoldings chases nothing.
   A committed candidate becomes the next base with the solution at
   hand — the one the cone check just computed, or, after an
   unfolding, the still-lazy solution of [m], which agrees with [next]
   on every relation of [next] — unless the commit changed the
   mapping's constants, which the critical instance is built from: then
   the next base is a fresh lazy one. *)
type fusion_base = {
  mapping : Mapping.t;
  consts : Value.t list;
  instance : Exchange.Instance.t Lazy.t;
  solution : (Exchange.Instance.t, string) result Lazy.t;
}

let fusion_base (m : Mapping.t) =
  let instance = lazy (critical_instance m) in
  let solution =
    lazy (Result.map fst (Exchange.Chase.run m (Lazy.force instance)))
  in
  { mapping = m; consts = mapping_consts m; instance; solution }

let commit (base : fusion_base) (next : Mapping.t) solution =
  let consts = mapping_consts next in
  if List.equal Value.equal consts base.consts then
    { mapping = next; consts; instance = base.instance; solution }
  else fusion_base next

let only_in a b = List.filter (fun t -> not (List.memq t b)) a

(* The relations [next] may derive differently from [m]: the targets of
   tgds in one mapping but not (physically) in the other and,
   transitively, the target of every tgd of [next] reading one of them.
   Every other relation has the same tgds over the same inputs in both,
   hence the same facts — given that [next] differs from [m] only in its
   tgds and by dropping the relations (and egds) of tgds it dropped,
   which is what a fusion does. *)
let affected (m : Mapping.t) (next : Mapping.t) =
  let rec close affected =
    let grown =
      List.filter
        (fun tgd ->
          (not (List.mem (Tgd.target_relation tgd) affected))
          && List.exists
               (fun r -> List.mem r affected)
               (Tgd.source_relations tgd))
        next.Mapping.t_tgds
    in
    if grown = [] then affected
    else close (List.map Tgd.target_relation grown @ affected)
  in
  close
    (List.map Tgd.target_relation
       (only_in m.Mapping.t_tgds next.Mapping.t_tgds
       @ only_in next.Mapping.t_tgds m.Mapping.t_tgds))

(* Decide [equivalent_on_critical base.mapping next] by chasing only the
   affected cone of [next], seeded with the base solution for every
   other relation.  The seeded relations hold the base's facts
   unchanged, so only the affected ones are compared; the others count
   towards [facts_compared] by cardinality, which gives the full
   check's verdict, count and message.  Falls back to a full chase of
   [next] when the cone chase fails, so that an error carries the full
   check's message.  Also returns [next]'s solution, when one was
   computed. *)
let check_against (base : fusion_base) (next : Mapping.t) =
  match Lazy.force base.solution with
  | Error e -> (original_failed e, None)
  | Ok j1 -> (
      let affected = affected base.mapping next in
      let cone =
        {
          next with
          Mapping.source =
            List.filter
              (fun (s : Schema.t) -> not (List.mem s.Schema.name affected))
              next.Mapping.target;
          t_tgds =
            List.filter
              (fun tgd -> List.mem (Tgd.target_relation tgd) affected)
              next.Mapping.t_tgds;
        }
      in
      match Exchange.Chase.run cone j1 with
      | Error _ -> chase_and_compare j1 next (Lazy.force base.instance)
      | Ok (j2, _) ->
          let unchanged rel = not (List.mem rel affected) in
          (compare_solutions ~unchanged j1 j2 next, Some j2))

(* --- unfolding: fusions proved without a chase ------------------------ *)

(* Inlining a tuple-level producer [L → T(s)] into a tuple-level
   consumer [T(u) ∧ B → H] is view unfolding: [Fuse.fuse_step] computes
   the most general unifier σ of [u] and the renamed-apart [s], and
   the fused tgd [σ(B ∧ L) → σ(H)] derives exactly the facts the pair
   derives through [T] (Calì & Torlone, conjunctive queries), given
   four side conditions the chase's semantics add:

   - [T] is functional: the producer's body determines its head measure
     from its head dimensions, so [T]'s egd, which the fused mapping
     drops, can never fail;
   - undefinedness is preserved: a producer head term that can be
     undefined (anything but a variable or a constant) leaves a hole in
     [T], so its image must still be evaluated by the fused tgd,
     outside every [Coalesce], which absorbs an undefined operand;
   - both the producer and the fused tgd run: every variable of a
     complex body term or of the head occurs as a plain argument of a
     body atom (the chase refuses the first, derives nothing for the
     second);
   - no other tgd reads or writes [T] once the consumers are fused.

   [unfold_tuple] checks the first three for one consumer, whose fused
   tgd must be the replayed fusion ([replays]).  It returns the replay,
   σ on the consumer's variables, read off the replay, and the
   determination chain of [T]'s measure.  The fourth holds for every candidate, which
   fuses all of [T]'s readers, and [T] has no second writer: one writer
   per relation is a rule of [Stratify] (E204), which the chase of
   every mapping enforces; [verify] checks it on the optimized
   mapping. *)

(* [t] is evaluated whenever [term] is: it occurs in [term] outside
   every [Coalesce]. *)
let rec forces t (term : Term.t) =
  Term.equal t term
  ||
  match term with
  | Term.Var _ | Term.Const _ | Term.Coalesce _ -> false
  | Term.Shifted (a, _) | Term.Dim_fn (_, a) | Term.Scalar_fn (_, _, a)
  | Term.Neg a ->
      forces t a
  | Term.Binapp (_, a, b) -> forces t a || forces t b

let runs (lhs : Tgd.atom list) (rhs : Tgd.atom) =
  let plain =
    List.concat_map
      (fun (a : Tgd.atom) ->
        List.filter_map (function Term.Var v -> Some v | _ -> None) a.Tgd.args)
      lhs
  in
  let complex (a : Tgd.atom) =
    List.concat_map (function Term.Var _ -> [] | t -> Term.vars t) a.Tgd.args
  in
  List.for_all
    (fun v -> List.mem v plain)
    (Tgd.atom_vars rhs @ List.concat_map complex lhs)

let match_atoms patterns targets =
  if List.compare_lengths patterns targets <> 0 then None
  else
    List.fold_left2
      (fun acc p t -> Option.bind acc (fun sub -> Containment.match_atom sub p t))
      (Some []) patterns targets

(* [fused] is the fusion [raw] a replay computed, as committed: after
   body minimization (its action log discarded), when that changed it.
   Fresh variable names depend only on the two tgds, so the replay
   reproduces the recorded tgd exactly. *)
let replays ~original raw fused =
  Tgd.equal raw fused || Tgd.equal (minimize_tgd (fun _ -> ()) ~original raw) fused

let unfold_tuple ~original ~producer ~consumer ~fused =
  match (producer, consumer, Fuse.fuse_step ~producer ~consumer) with
  | ( Tgd.Tuple_level { lhs = p_lhs; rhs = p_rhs },
      Tgd.Tuple_level { lhs = c_lhs; rhs = c_rhs },
      Some (Tgd.Tuple_level { lhs; rhs } as raw) )
    when runs p_lhs p_rhs && runs lhs rhs && replays ~original raw fused -> (
      (* the replay lists the consumer's other atoms, then the
         producer's body: match each side onto its part *)
      let temp_atom, others =
        List.partition (fun (a : Tgd.atom) -> a.Tgd.rel = p_rhs.Tgd.rel) c_lhs
      in
      let n = List.length others in
      let raw_others = List.filteri (fun i _ -> i < n) lhs in
      let raw_producer = List.filteri (fun i _ -> i >= n) lhs in
      let image =
        Option.map
          (fun tau ->
            { p_rhs with Tgd.args = List.map (Containment.apply_hom tau) p_rhs.Tgd.args })
          (match_atoms p_lhs raw_producer)
      in
      let unifier =
        Option.bind image (fun image ->
            match_atoms ((c_rhs :: others) @ temp_atom) ((rhs :: raw_others) @ [ image ]))
      in
      let defined (image : Tgd.atom) =
        List.for_all2
          (fun s t ->
            match (s : Term.t) with
            | Term.Var _ | Term.Const _ -> true
            | _ ->
                List.exists
                  (fun (a : Tgd.atom) -> List.exists (forces t) a.Tgd.args)
                  (rhs :: lhs))
          p_rhs.Tgd.args image.Tgd.args
      in
      let functional_body =
        List.filter (fun (a : Tgd.atom) -> functional_rel original a.Tgd.rel) p_lhs
      in
      match (image, unifier) with
      | Some image, Some unifier when defined image ->
          (* identity bindings say nothing: a homomorphism leaves
             unnamed variables alone *)
          let moved =
            List.filter (fun (v, t) -> not (Term.equal t (Term.Var v))) unifier
          in
          Option.map
            (fun chain -> (raw, List.rev moved, chain))
            (Containment.fd_determines ~body:functional_body ~head:p_rhs)
      | _ -> None)
  | _ -> None

(* Alpha-equivalence up to variable renaming: mutual subsumption for
   tuple-level tgds, a two-way atom match for aggregations.  Used to
   replay fusion steps, whose fresh variable names differ between the
   recorded and the replayed result. *)
let alpha_equivalent (a : Tgd.t) (b : Tgd.t) =
  match (a, b) with
  | Tgd.Tuple_level _, Tgd.Tuple_level _ ->
      Containment.equivalent a b <> None
  | ( Tgd.Aggregation
        { source = s1; group_by = g1; aggr = a1; measure = m1; target = t1 },
      Tgd.Aggregation
        { source = s2; group_by = g2; aggr = a2; measure = m2; target = t2 } )
    ->
      a1 = a2 && t1 = t2
      && List.length g1 = List.length g2
      && (let match_dir sa ga ma sb gb mb =
            match
              Containment.match_atom []
                (Containment.normalize_atom sa)
                (Containment.normalize_atom sb)
            with
            | None -> None
            | Some sub ->
                let sub =
                  List.fold_left2
                    (fun acc ta tb ->
                      Option.bind acc (fun sub ->
                          Containment.match_term sub
                            (Containment.normalize_term ta)
                            (Containment.normalize_term tb)))
                    (Some sub) ga gb
                in
                Option.bind sub (fun sub ->
                    Containment.match_term sub (Term.Var ma) (Term.Var mb))
          in
          match_dir s1 g1 m1 s2 g2 m2 <> None
          && match_dir s2 g2 m2 s1 g1 m1 <> None)
  | _ -> Tgd.equal a b

(* Inlining a single-atom producer [A(x, m) → T(s, m')] into an
   aggregation [T(u, y) → H(g, agg(y))] is [Fuse.fuse_step_agg]: σ
   binds [u] to [s] (renamed apart), and the fused tgd aggregates [A]
   into [H(σ(g), agg(m'))].  An aggregation reads a bag, not a set of
   bindings, so beyond the replay (compared by [alpha_equivalent]:
   aggregations are not minimized) the proof needs the producer to map
   A's matches one to one onto T's facts, each keeping its group and
   measure:

   - [A] is functional, and every variable of A's dimension arguments
     is recovered by a head dimension term that is the variable itself
     or a shift of it at a temporal position of [A], a bijection of the
     calendar: two matches with one head key then bind the same
     dimensions, so they are one fact of [A].  T's facts are then in
     bijection with A's matches, T's egd, which the fused mapping
     drops, cannot fail, and the aggregation sees the same bag;
   - every head dimension term is defined on every match: a constant,
     a variable or such a shift.  Forcing an undefined term in σ(g) is
     not enough here: where the producer skips a fact, the fused
     aggregation would evaluate the term and fail the chase, since an
     undefined group-by term is an error, not a skipped fact;
   - both tgds run: A's arguments are variables and constants (the
     aggregation matcher settles no complex term), and the variables of
     the producer's head, of σ(g) and of the measure occur among them;
   - the aggregate ignores the order of its bag: [first] and [last]
     read the bag in fact order, which is A's key order after fusion
     and T's before, and a producer may permute the dimensions.

   The proof is σ on the consumer's group-by variables, read off the
   replay, and a chain naming, for each dimension variable of [A], the
   head dimension term that recovers it ([q ← q + 1]). *)

(* [term] is [v] or, when [v] is temporal, a shift of [v] by a numeric
   constant. *)
let recovers ~temporal v (term : Term.t) =
  match Containment.normalize_term term with
  | Term.Var w -> w = v
  | Term.Binapp
      ((Ops.Binop.Add | Ops.Binop.Sub), Term.Var w, Term.Const (Value.Int _ | Value.Float _))
  | Term.Binapp (Ops.Binop.Add, Term.Const (Value.Int _ | Value.Float _), Term.Var w) ->
      w = v && temporal v
  | _ -> false

(* The variables of [a] at a position whose domain is temporal. *)
let temporal_vars (m : Mapping.t) (a : Tgd.atom) =
  let dims =
    match Mapping.target_schema m a.Tgd.rel with Some s -> s.Schema.dims | None -> [||]
  in
  List.concat
    (List.mapi
       (fun i (t : Term.t) ->
         match t with
         | Term.Var v
           when i < Array.length dims && Domain.is_temporal dims.(i).Schema.dim_domain ->
             [ v ]
         | _ -> [])
       a.Tgd.args)

let unfold_aggregation ~original ~producer ~consumer ~fused =
  match (producer, consumer, Fuse.fuse_step_agg ~producer ~consumer) with
  | ( Tgd.Tuple_level { lhs = [ a ]; rhs = p_rhs },
      Tgd.Aggregation { group_by; _ },
      Some (Tgd.Aggregation { source; group_by = fused_group_by; aggr; measure; target } as raw)
    )
    when (match aggr with Stats.Aggregate.First | Last -> false | _ -> true)
         && alpha_equivalent raw fused
         && functional_rel original a.Tgd.rel
         && List.for_all (function Term.Var _ | Term.Const _ -> true | _ -> false) a.Tgd.args
         && runs [ a ] p_rhs
         && runs [ source ] (Tgd.atom target (fused_group_by @ [ Term.Var measure ])) ->
      let temporal_vars = temporal_vars original a in
      let temporal v = List.mem v temporal_vars in
      let a_dims, _ = Containment.split_atom a and keys, _ = Containment.split_atom p_rhs in
      let defined (t : Term.t) =
        (match t with Term.Const _ -> true | _ -> false)
        || List.exists (fun v -> recovers ~temporal v t) (Term.vars t)
      in
      let chain =
        List.map
          (fun v ->
            Option.map
              (fun k -> v ^ " ← " ^ Term.to_string k)
              (List.find_opt (recovers ~temporal v) keys))
          (Tgd.atom_vars { a with Tgd.args = a_dims })
      in
      let unifier =
        List.fold_left2
          (fun acc p t -> Option.bind acc (fun sub -> Containment.match_term sub p t))
          (Some []) group_by fused_group_by
      in
      if List.for_all defined keys && List.for_all Option.is_some chain then
        Option.map
          (fun unifier ->
            ( raw,
              List.rev (List.filter (fun (v, t) -> not (Term.equal t (Term.Var v))) unifier),
              List.filter_map Fun.id chain ))
          unifier
      else None
  | _ -> None

(* The fusion [raw] the proof replays, its unifier and its chain. *)
let unfolding ~original ~producer ~consumer ~fused =
  match consumer with
  | Tgd.Aggregation _ -> unfold_aggregation ~original ~producer ~consumer ~fused
  | _ -> unfold_tuple ~original ~producer ~consumer ~fused

(* When [next] is one fusion of [m]: the producer, and each consumer
   paired with the tgd of [next] that replaced it.  [m]'s tgds missing
   from [next] are the producer — the one whose target [next] drops —
   and its consumers, which [next]'s new tgds replace in order. *)
let fusion_diff (m : Mapping.t) (next : Mapping.t) =
  let dropped tgd =
    not
      (List.exists
         (fun (s : Schema.t) -> s.Schema.name = Tgd.target_relation tgd)
         next.Mapping.target)
  in
  let added = only_in next.Mapping.t_tgds m.Mapping.t_tgds in
  match List.partition dropped (only_in m.Mapping.t_tgds next.Mapping.t_tgds) with
  | [ producer ], consumers when List.compare_lengths consumers added = 0 ->
      Some (producer, List.combine consumers added)
  | _ -> None

(* The unifier and determination chain of each fused consumer, in
   [next]'s order, when [next] is a fusion of [base.mapping] that every
   side condition proves. *)
let unfoldings (base : fusion_base) (next : Mapping.t) =
  match fusion_diff base.mapping next with
  | Some (producer, pairs) ->
      let proofs =
        List.map
          (fun (consumer, fused) ->
            Option.map
              (fun (_, unifier, chain) -> (unifier, chain))
              (unfolding ~original:base.mapping ~producer ~consumer ~fused))
          pairs
      in
      if List.for_all Option.is_some proofs then Some (List.filter_map Fun.id proofs)
      else None
  | _ -> None

type fusion_proof =
  | Unfolded of (Containment.homomorphism * string list) list
  | Chased of int

let check_fusion ?(unfold = true) (base : fusion_base) (next : Mapping.t) =
  match if unfold then unfoldings base next else None with
  | Some proofs -> (Ok (Unfolded proofs), commit base next base.solution)
  | None -> (
      match check_against base next with
      | Ok n, Some j2 -> (Ok (Chased n), commit base next (Lazy.from_val (Ok j2)))
      | verdict, _ -> (Result.map (fun n -> Chased n) verdict, base))

(* --- pass 2: cost-gated, certified fusion (I304) ----------------------- *)

let usages (m : Mapping.t) name =
  List.filter
    (fun tgd -> List.mem name (Tgd.source_relations tgd))
    m.Mapping.t_tgds

(* Replace a temporary relation by the relation an identity producer
   copies: sound for any consumer shape because the grids coincide
   exactly.  Only when the producer is a provable identity. *)
let rename_rel ~from_rel ~to_rel (tgd : Tgd.t) =
  let fix (a : Tgd.atom) =
    if a.Tgd.rel = from_rel then { a with Tgd.rel = to_rel } else a
  in
  match tgd with
  | Tgd.Tuple_level { lhs; rhs } ->
      Tgd.Tuple_level { lhs = List.map fix lhs; rhs = fix rhs }
  | Tgd.Aggregation a -> Tgd.Aggregation { a with source = fix a.source }
  | Tgd.Table_fn f ->
      Tgd.Table_fn
        { f with source = (if f.source = from_rel then to_rel else f.source) }
  | Tgd.Outer_combine o ->
      Tgd.Outer_combine { o with left = fix o.left; right = fix o.right }

let fuse_consumer ~producer ~consumer =
  match consumer with
  | Tgd.Tuple_level _ -> Fuse.fuse_step ~producer ~consumer
  | Tgd.Aggregation _ -> Fuse.fuse_step_agg ~producer ~consumer
  | Tgd.Table_fn _ | Tgd.Outer_combine _ ->
      if Containment.is_identity producer then (
        match producer with
        | Tgd.Tuple_level { lhs = [ a ]; rhs } ->
            Some (rename_rel ~from_rel:rhs.Tgd.rel ~to_rel:a.Tgd.rel consumer)
        | _ -> None)
      else None

let remove_temp (m : Mapping.t) temp ~producer ~(replacements : (Tgd.t * Tgd.t) list) =
  let t_tgds =
    List.filter_map
      (fun tgd ->
        if tgd == producer then None
        else
          match List.find_opt (fun (c, _) -> c == tgd) replacements with
          | Some (_, fused) -> Some fused
          | None -> Some tgd)
      m.Mapping.t_tgds
  in
  let target =
    List.filter (fun (s : Schema.t) -> s.Schema.name <> temp) m.Mapping.target
  in
  let egds =
    List.filter (fun (e : Egd.t) -> e.Egd.relation <> temp) m.Mapping.egds
  in
  { m with Mapping.t_tgds; target; egds }

(* One fusion candidate: [temp]'s producer inlined into every consumer
   (bodies minimized, their I302/I303 actions held back in
   [minimizing] until the fusion is committed), when each consumer
   fuses and the cost gate passes. *)
type fusion = {
  producer : Tgd.t;
  temp : string;
  fused : (Tgd.t * Tgd.t) list;  (* consumer, minimized fused tgd *)
  minimizing : action list;  (* in application order *)
  unfused : int;
  fused_cost : int;
  next : Mapping.t;
}

let fusion_of ~original ?cards (m : Mapping.t) producer =
  match producer with
  | Tgd.Tuple_level _ -> (
      let temp = Tgd.target_relation producer in
      if not (Exl.Normalize.is_temp temp) then None
      else
        match usages m temp with
        | [] -> None
        | consumers -> (
            let fused =
              List.map
                (fun consumer ->
                  Option.map
                    (fun f -> (consumer, f))
                    (fuse_consumer ~producer ~consumer))
                consumers
            in
            if List.exists Option.is_none fused then None
            else
              let replacements = List.filter_map Fun.id fused in
              (* cost gate: inlining into k consumers repeats the
                 producer's work k times but saves materializing and
                 scanning the temporary *)
              let env = cost_env ?cards m in
              let unfused =
                est_tgd env producer + out_card env producer
                + List.fold_left (fun acc c -> acc + est_tgd env c) 0 consumers
              in
              let fused_cost =
                List.fold_left
                  (fun acc (_, f) -> acc + est_tgd env f)
                  0 replacements
              in
              if fused_cost > unfused then None
              else
                (* minimize the fused bodies before committing (the
                   merge of duplicate functional atoms typically fires
                   right here) *)
                let minimizing = ref [] in
                let push a = minimizing := a :: !minimizing in
                let fused =
                  List.map
                    (fun (c, f) -> (c, minimize_tgd push ~original f))
                    replacements
                in
                Some
                  {
                    producer;
                    temp;
                    fused;
                    minimizing = List.rev !minimizing;
                    unfused;
                    fused_cost;
                    next = remove_temp m temp ~producer ~replacements:fused;
                  }))
  | _ -> None

let fusion_candidates ?cards (m : Mapping.t) =
  List.filter_map
    (fun p -> Option.map (fun f -> f.next) (fusion_of ~original:m ?cards m p))
    m.Mapping.t_tgds

let fuse_all push ~original ?cards (m : Mapping.t) =
  let rec loop base (m : Mapping.t) rejected =
    let candidate =
      List.find_map
        (fun producer ->
          if List.mem (Tgd.target_relation producer) rejected then None
          else fusion_of ~original ?cards m producer)
        m.Mapping.t_tgds
    in
    match candidate with
    | None -> m
    | Some f -> (
        match check_fusion base f.next with
        | Error _, _ -> loop base m (f.temp :: rejected)
        | Ok proof, committed ->
            let certified =
              match proof with
              | Unfolded proofs ->
                  List.map2
                    (fun ((consumer, _) as pair) (unifier, chain) ->
                      let why =
                        match (consumer, f.producer) with
                        | Tgd.Aggregation _, Tgd.Tuple_level { lhs = [ a ]; _ } ->
                            Printf.sprintf "%s one to one with %s via %s" f.temp a.Tgd.rel
                              (String.concat ", " chain)
                        | _ -> Printf.sprintf "%s functional via %s" f.temp (String.concat " → " chain)
                      in
                      ( pair,
                        Unfolding { producer = f.producer; unifier; chain },
                        Printf.sprintf "unfolded with σ = %s, %s"
                          (Containment.hom_to_string unifier) why ))
                    f.fused proofs
              | Chased facts_compared ->
                  List.map
                    (fun pair ->
                      ( pair,
                        Fusion_equivalence { producer = f.producer; facts_compared },
                        Printf.sprintf
                          "equivalence checked on the critical instance (%d facts)"
                          facts_compared ))
                    f.fused
            in
            List.iter
              (fun ((consumer, fused), certificate, evidence) ->
                let target = Tgd.target_relation consumer in
                push
                  {
                    code = "I304";
                    target;
                    detail =
                      Printf.sprintf
                        "fused temporary %s into %s (est. matches %d → %d); %s"
                        f.temp target f.unfused f.fused_cost evidence;
                    before = Some consumer;
                    after = Some fused;
                    certificate;
                  })
              certified;
            List.iter push f.minimizing;
            loop committed f.next rejected)
  in
  loop (fusion_base m) m []

(* --- pass 3: outer-combine specialization (I305) ----------------------- *)

let specialize_outer (tgd : Tgd.t) =
  match tgd with
  | Tgd.Outer_combine { left; right; op; default = _; target }
    when left.Tgd.rel = right.Tgd.rel -> (
      match (Containment.split_atom left, Containment.split_atom right) with
      | (ldims, Some (Term.Var ml)), (rdims, Some (Term.Var _))
        when List.length ldims = List.length rdims
             && List.for_all2 Term.equal
                  (List.map Containment.normalize_term ldims)
                  (List.map Containment.normalize_term rdims) ->
          (* identical relation and dimension terms: the key sets are
             equal, no side is ever missing, the default is dead — and
             both measures name the same fact's measure *)
          Some
            (Tgd.Tuple_level
               {
                 lhs = [ left ];
                 rhs =
                   Tgd.atom target
                     (ldims @ [ Term.Binapp (op, Term.Var ml, Term.Var ml) ]);
               })
      | _ -> None)
  | _ -> None

let specialize_outers push (m : Mapping.t) =
  let t_tgds =
    List.map
      (fun tgd ->
        match specialize_outer tgd with
        | None -> tgd
        | Some specialized ->
            let rel =
              match tgd with
              | Tgd.Outer_combine { left; _ } -> left.Tgd.rel
              | _ -> assert false
            in
            push
              {
                code = "I305";
                target = Tgd.target_relation tgd;
                detail =
                  Printf.sprintf
                    "specialized outer combine for %s: both sides read %s on \
                     the same grid, the coalescing default is dead"
                    (Tgd.target_relation tgd) rel;
                before = Some tgd;
                after = Some specialized;
                certificate = Grid_equality { relation = rel };
              };
            specialized)
      m.Mapping.t_tgds
  in
  { m with Mapping.t_tgds }

(* --- pass 4: egd discharge (I306) -------------------------------------- *)

let discharge_egds push (m : Mapping.t) =
  let defining rel =
    match List.filter (fun t -> Tgd.target_relation t = rel) m.Mapping.t_tgds with
    | [ tgd ] -> Some tgd
    | _ -> None
  in
  let egds =
    List.filter
      (fun (e : Egd.t) ->
        let rel = e.Egd.relation in
        match defining rel with
        | None -> true
        | Some tgd -> (
            let discharge chain why =
              push
                {
                  code = "I306";
                  target = rel;
                  detail =
                    Printf.sprintf "discharged functionality egd of %s: %s" rel
                      why;
                  before = Some tgd;
                  after = None;
                  certificate = Determination { chain };
                };
              false
            in
            match tgd with
            | Tgd.Tuple_level { lhs; rhs } -> (
                match Containment.fd_determines ~body:lhs ~head:rhs with
                | Some chain ->
                    discharge chain
                      (Printf.sprintf
                         "measure determined by head dimensions via %s"
                         (String.concat " → " chain))
                | None -> true)
            | Tgd.Aggregation _ ->
                discharge [] "aggregations key their output by the group-by terms"
            | Tgd.Table_fn _ ->
                discharge [] "table functions preserve the dimension grid"
            | Tgd.Outer_combine _ ->
                discharge [] "outer combines key their output by the dimension grid"))
      m.Mapping.egds
  in
  { m with Mapping.egds }

(* --- join ordering ----------------------------------------------------- *)

(* Order a tuple-level body for execution.  The chase joins atoms left
   to right, probing a hash index on every argument position whose term
   is fully determined by the plain variables bound so far; an atom
   reached with no determined position falls back to a full scan (a
   nested loop).  Fusion concatenates bodies in discovery order, which
   can put a shifted atom before the atom that binds its variable —
   e.g. [GDPT(q-1, m2) ∧ GDPT(q, m1)] scans GDPT quadratically where
   the reverse order probes.  Conjunction is commutative, so reordering
   needs no certificate: greedily pick the atom with the most
   determined positions, breaking ties towards the one binding the most
   new plain variables. *)
let order_body (lhs : Tgd.atom list) =
  match lhs with
  | [] | [ _ ] -> lhs
  | _ ->
      let plain_vars (a : Tgd.atom) =
        List.filter_map
          (fun t -> match t with Term.Var v -> Some v | _ -> None)
          a.Tgd.args
      in
      let determined bound (a : Tgd.atom) =
        List.length
          (List.filter
             (fun t ->
               List.for_all (fun v -> List.mem v bound) (Term.vars t))
             a.Tgd.args)
      in
      let rec go bound acc remaining =
        match remaining with
        | [] -> List.rev acc
        | _ ->
            let best =
              List.fold_left
                (fun best a ->
                  let score =
                    (determined bound a, List.length (plain_vars a))
                  in
                  match best with
                  | Some (best_score, _) when best_score >= score -> best
                  | _ -> Some (score, a))
                None remaining
            in
            let _, a = Option.get best in
            go
              (plain_vars a @ bound)
              (a :: acc)
              (List.filter (fun b -> b != a) remaining)
      in
      go [] [] lhs

let order_bodies (m : Mapping.t) =
  {
    m with
    Mapping.t_tgds =
      List.map
        (fun tgd ->
          match tgd with
          | Tgd.Tuple_level { lhs; rhs } ->
              Tgd.Tuple_level { lhs = order_body lhs; rhs }
          | t -> t)
        m.Mapping.t_tgds;
  }

(* --- the driver -------------------------------------------------------- *)

let run ?(fuse = true) ?cards (m : Mapping.t) =
  let actions = ref [] in
  let push a = actions := a :: !actions in
  let m1 = minimize_all push ~original:m m in
  let m2 = if fuse then fuse_all push ~original:m ?cards m1 else m1 in
  let m3 = specialize_outers push m2 in
  let m4 = discharge_egds push m3 in
  let m5 = order_bodies m4 in
  {
    original = m;
    optimized = m5;
    actions = List.rev !actions;
    est_before = estimate ?cards m;
    est_after = estimate ?cards m5;
    fused = fuse;
  }

(* --- verification ------------------------------------------------------ *)

(* [l2] is [l1] with one element [eq] to [x] removed, the others kept
   in order. *)
let rec drops_one eq x l1 l2 =
  match (l1, l2) with
  | y :: r1, _ when eq x y && List.equal eq r1 l2 -> true
  | y :: r1, z :: r2 -> eq y z && drops_one eq x r1 r2
  | _ -> false

(* Check [a]'s certificate.  For an I304, also return the fusion it
   recomputes, from which the log's replay chains the fusion's
   minimization steps. *)
let verify_action (r : report) (a : action) : (Tgd.t option, string) result =
  let fail fmt = Printf.ksprintf (fun s -> Error (a.code ^ ": " ^ s)) fmt in
  match (a.certificate, a.before, a.after) with
  | Fold_witness { dropped; onto; hom }, Some before, Some after -> (
      match (before, after) with
      | Tgd.Tuple_level { lhs = b_lhs; rhs = b_rhs },
        Tgd.Tuple_level { lhs = a_lhs; rhs = a_rhs } ->
          let kept_vars =
            List.sort_uniq String.compare
              (Tgd.atom_vars a_rhs @ List.concat_map Tgd.atom_vars a_lhs)
          in
          let moves_outside_var =
            List.exists
              (fun (v, t) ->
                (not (Term.equal t (Term.Var v))) && List.mem v kept_vars)
              hom
          in
          let image =
            Containment.normalize_atom
              {
                dropped with
                Tgd.args =
                  List.map
                    (fun t ->
                      Containment.apply_hom hom (Containment.normalize_term t))
                    dropped.Tgd.args;
              }
          in
          let lands_on_onto =
            Tgd.equal_atom image (Containment.normalize_atom onto)
            && List.exists
                 (fun b ->
                   Tgd.equal_atom (Containment.normalize_atom onto)
                     (Containment.normalize_atom b))
                 a_lhs
          in
          if
            not
              (Tgd.equal_atom b_rhs a_rhs
              && drops_one Tgd.equal_atom dropped b_lhs a_lhs)
          then
            fail "the recorded result is not the tgd for %s without %s" a.target
              (Tgd.atom_to_string dropped)
          else if moves_outside_var || not lands_on_onto then
            fail "fold witness for %s does not land in the reduced body" a.target
          else Ok None
      | _ -> fail "fold certificate on non tuple-level tgds")
  | Egd_merge { relation; dropped_var; kept_var }, Some before, Some after -> (
      if not (functional_rel r.original relation) then
        fail "merge of %s atoms is not justified by any egd" relation
      else
        match before with
        | Tgd.Tuple_level { lhs; rhs } -> (
            let pair =
              List.find_map
                (fun (x : Tgd.atom) ->
                  List.find_map
                    (fun (y : Tgd.atom) ->
                      if x == y || x.Tgd.rel <> relation || y.Tgd.rel <> relation
                      then None
                      else
                        let dx, mx = Containment.split_atom (Containment.normalize_atom x) in
                        let dy, my = Containment.split_atom (Containment.normalize_atom y) in
                        match (mx, my) with
                        | Some (Term.Var vx), Some (Term.Var vy)
                          when vx = kept_var && vy = dropped_var
                               && List.length dx = List.length dy
                               && List.for_all2 Term.equal dx dy ->
                            Some y
                        | _ -> None)
                    lhs)
                lhs
            in
            match pair with
            | None ->
                fail "no duplicate %s atoms with measures %s/%s in %s" relation
                  kept_var dropped_var a.target
            | Some dropped_atom ->
                let replay =
                  Tgd.Tuple_level
                    {
                      lhs =
                        List.filter_map
                          (fun at ->
                            if at == dropped_atom then None
                            else
                              Some
                                (subst_var dropped_var (Term.Var kept_var) at))
                          lhs;
                      rhs = subst_var dropped_var (Term.Var kept_var) rhs;
                    }
                in
                if Tgd.equal replay after then Ok None
                else fail "replayed merge differs from the recorded result")
        | _ -> fail "merge certificate on a non tuple-level tgd")
  | Fusion_equivalence { producer; facts_compared = _ }, Some consumer, Some _ -> (
      (* the replay compares the recorded tgd with this fusion and
         cone-checks what it derives *)
      match fuse_consumer ~producer ~consumer with
      | Some raw -> Ok (Some raw)
      | None -> fail "recorded fusion for %s does not replay" a.target)
  | Unfolding { producer; unifier; chain }, Some consumer, Some fused -> (
      (* no chase: replay the fusion and re-derive its unifier and
         chain, which holds only if every side condition does *)
      let temp = Tgd.target_relation producer in
      match unfolding ~original:r.original ~producer ~consumer ~fused with
      | None ->
          fail "unfolding of %s into %s does not replay or fails a side condition"
            temp a.target
      | Some (raw, u, c) ->
          let same_hom =
            List.equal (fun (v, t) (w, s) -> v = w && Term.equal t s) unifier u
          in
          if not (same_hom && c = chain) then
            fail "unifier or determination chain of the unfolding into %s does not \
                  replay" a.target
          else if
            List.exists
              (fun tgd ->
                Tgd.target_relation tgd = temp
                || List.mem temp (Tgd.source_relations tgd))
              r.optimized.Mapping.t_tgds
          then
            fail "temporary %s is still read or written after unfolding" temp
          else Ok (Some raw))
  | Grid_equality { relation }, Some before, Some after -> (
      match specialize_outer before with
      | Some replay when Tgd.equal replay after -> (
          match before with
          | Tgd.Outer_combine { left; right; _ }
            when left.Tgd.rel = relation && right.Tgd.rel = relation ->
              Ok None
          | _ -> fail "grid certificate names the wrong relation")
      | _ -> fail "outer specialization for %s does not replay" a.target)
  | Determination { chain }, Some tgd, None -> (
      match tgd with
      | Tgd.Tuple_level { lhs; rhs } -> (
          match Containment.fd_determines ~body:lhs ~head:rhs with
          | Some replay_chain
            when List.sort String.compare replay_chain
                 = List.sort String.compare chain ->
              Ok None
          | Some _ -> fail "determination chain for %s does not replay" a.target
          | None ->
              fail "egd of %s is not implied by its defining tgd" a.target)
      | Tgd.Aggregation _ | Tgd.Table_fn _ | Tgd.Outer_combine _ ->
          if chain = [] then Ok None
          else fail "non-empty chain on a construction-functional tgd")
  | _ -> fail "malformed certificate for %s" a.target

(* --- replaying the action log ------------------------------------------ *)

(* [verify] replays the log onto [original]: each action must rewrite
   tgds of the mapping the replay has reached, and the result must be
   [optimized] up to the order of each body ([order_bodies], the one
   pass that logs nothing, reorders conjunctions).  Each certificate
   pins its rewrite down: an I302, I303 or I305 replays to exactly its
   recorded result, an I306's chain is re-derived from the defining
   tgd, and an I304's fusion is recomputed.  So every step of the
   replay preserves the solution, and the replay proves [optimized]
   equivalent to [original] with no chase.  The one certificate whose
   evidence is a chase, a [Fusion_equivalence], is cone-checked again,
   once per fusion, on the mapping the replay has reached.

   A fusion is its I304 actions, one per consumer, sharing a producer,
   then the minimization steps of the fused bodies.  Each I304 replaces
   its consumer with the recorded fused tgd, and the first one also
   drops the producer, the temporary's schema and its egd.  The
   minimization steps rewrite no tgd of the mapping: they must chain
   from the fusion the certificate check recomputed to the recorded
   fused tgd. *)

(* An open fusion: the mapping before it, its producer, and for each
   I304 so far the recomputed fusion advanced by the minimization steps
   logged for it, beside the recorded fused tgd. *)
type replayed_fusion = {
  before_fusion : Mapping.t;
  producer_of : Tgd.t;
  chains : (Tgd.t * Tgd.t * action) list;
}

(* The mapping the replay has reached, its open fusion, and the fusion
   base of the mapping before that fusion ([reached] when none is
   open).  The first chased fusion builds the base, and each closed
   fusion advances it, as [fuse_all] does, until a rewrite outside a
   fusion drops it. *)
type replay = {
  reached : Mapping.t;
  fusion : replayed_fusion option;
  base : fusion_base option;
}

let chased (a : action) =
  match a.certificate with Fusion_equivalence _ -> true | _ -> false

(* [l] with its first element [x] such that [eq x] replaced by [by x]
   (dropped when that is [None]), or [None] when no element qualifies.
   Every other element is kept physically: the cone check diffs two
   mappings by physical equality. *)
let rec swap_first eq by = function
  | [] -> None
  | x :: rest when eq x -> Some (Option.fold ~none:rest ~some:(fun y -> y :: rest) (by x))
  | x :: rest -> Option.map (fun rest -> x :: rest) (swap_first eq by rest)

let swap_tgd before after (m : Mapping.t) =
  Option.map
    (fun t_tgds -> { m with Mapping.t_tgds })
    (swap_first (Tgd.equal before) (fun _ -> Some after) m.Mapping.t_tgds)

(* Close the open fusion: each chain must end at its recorded fused tgd
   — exactly for an unfolding, whose certificate replays it exactly; up
   to renaming and neutral arithmetic for a chased fusion, because what
   that tgd derives is the cone check's to decide.  A chased fusion is
   then cone-checked from the mapping before it. *)
let close_fusion (st : replay) =
  match st.fusion with
  | None -> Ok st
  | Some f -> (
      let ends_at (reached, fused, a) =
        if chased a then alpha_equivalent reached fused else Tgd.equal reached fused
      in
      match List.find_opt (fun c -> not (ends_at c)) f.chains with
      | Some (reached, fused, a) ->
          Error
            (Printf.sprintf
               "%s: the fusion into %s and its minimization steps give %s, not the \
                recorded %s"
               a.code a.target (Tgd.to_string reached) (Tgd.to_string fused))
      | None when not (List.exists (fun (_, _, a) -> chased a) f.chains) ->
          (* an unfolding: the base's solution agrees with the fused
             mapping on every relation of it *)
          let base = Option.map (fun b -> commit b st.reached b.solution) st.base in
          Ok { st with fusion = None; base }
      | None -> (
          let base =
            match st.base with Some b -> b | None -> fusion_base f.before_fusion
          in
          match check_fusion ~unfold:false base st.reached with
          | Ok _, base -> Ok { st with fusion = None; base = Some base }
          | Error e, _ ->
              Error
                (Printf.sprintf "I304: fusion of %s: %s"
                   (Tgd.target_relation f.producer_of) e)))

(* Replay [a], whose certificate check returned [raw]. *)
let replay_action (st : replay) (a : action) raw =
  let fail fmt = Printf.ksprintf (fun s -> Error (a.code ^ ": " ^ s)) fmt in
  let ( let* ) = Result.bind in
  let rewrite before after =
    let* st = close_fusion st in
    match swap_tgd before after st.reached with
    | Some reached -> Ok { reached; fusion = None; base = None }
    | None -> fail "rewrites a tgd of %s that is not in the mapping" a.target
  in
  match (a.certificate, a.before, a.after, raw) with
  | ( (Unfolding { producer; _ } | Fusion_equivalence { producer; _ }),
      Some consumer,
      Some fused,
      Some raw ) -> (
      let temp = Tgd.target_relation producer in
      let* st, f =
        match st.fusion with
        | Some f when Tgd.equal f.producer_of producer -> Ok (st, f)
        | _ -> (
            let* st = close_fusion st in
            match List.find_opt (Tgd.equal producer) st.reached.Mapping.t_tgds with
            | None -> fail "the producer of %s is not in the mapping" temp
            | Some p ->
                Ok
                  ( { st with reached = remove_temp st.reached temp ~producer:p ~replacements:[] },
                    { before_fusion = st.reached; producer_of = producer; chains = [] } ))
      in
      match swap_tgd consumer fused st.reached with
      | None -> fail "the consumer fused into %s is not in the mapping" a.target
      | Some reached ->
          Ok { st with reached; fusion = Some { f with chains = f.chains @ [ (raw, fused, a) ] } })
  | (Fold_witness _ | Egd_merge _), Some before, Some after, _ -> (
      (* a minimization step of the open fusion advances its chain *)
      let advanced =
        Option.bind st.fusion (fun f ->
            Option.map
              (fun chains -> { f with chains })
              (swap_first
                 (fun (reached, _, _) -> Tgd.equal reached before)
                 (fun (_, fused, i304) -> Some (after, fused, i304))
                 f.chains))
      in
      match advanced with
      | Some f -> Ok { st with fusion = Some f }
      | None -> rewrite before after)
  | Grid_equality _, Some before, Some after, _ -> rewrite before after
  | Determination _, Some tgd, None, _ ->
      let* st = close_fusion st in
      let m = st.reached in
      let discharged =
        swap_first (fun (e : Egd.t) -> e.Egd.relation = a.target) (fun _ -> None) m.Mapping.egds
      in
      if
        not (Tgd.target_relation tgd = a.target && List.exists (Tgd.equal tgd) m.Mapping.t_tgds)
      then fail "the tgd defining %s is not in the mapping" a.target
      else (
        match discharged with
        | Some egds -> Ok { reached = { m with Mapping.egds }; fusion = None; base = None }
        | None -> fail "the mapping has no egd of %s to discharge" a.target)
  | _ -> fail "malformed certificate for %s" a.target

(* Equal up to the order of each tuple-level body. *)
let same_up_to_body_order (a : Tgd.t) (b : Tgd.t) =
  match (a, b) with
  | Tgd.Tuple_level { lhs = l1; rhs = r1 }, Tgd.Tuple_level { lhs = l2; rhs = r2 } ->
      let rec permutation l1 l2 =
        match l1 with
        | [] -> l2 = []
        | x :: rest -> (
            match swap_first (Tgd.equal_atom x) (fun _ -> None) l2 with
            | Some l2 -> permutation rest l2
            | None -> false)
      in
      Tgd.equal_atom r1 r2 && permutation l1 l2
  | _ -> Tgd.equal a b

(* The first difference between the replayed and the optimized
   mapping. *)
let replay_differs (replayed : Mapping.t) (optimized : Mapping.t) =
  let missing eq l1 l2 = List.find_opt (fun x -> not (List.exists (eq x) l2)) l1 in
  let rec tgds = function
    | [], [] -> None
    | r :: _, [] ->
        Some
          (Printf.sprintf
             "the replayed log keeps the tgd for %s, which the optimized mapping lacks"
             (Tgd.target_relation r))
    | [], o :: _ ->
        Some
          (Printf.sprintf
             "the optimized mapping has a tgd for %s that the replayed log does not derive"
             (Tgd.target_relation o))
    | r :: rs, o :: os ->
        if same_up_to_body_order r o then tgds (rs, os)
        else
          Some
            (Printf.sprintf "the optimized tgd %s is %s in the replayed log" (Tgd.to_string o)
               (Tgd.to_string r))
  in
  let egd = Option.map (fun (e : Egd.t) -> e.Egd.relation) in
  let rel = Option.map (fun (s : Schema.t) -> s.Schema.name) in
  List.find_map Fun.id
    [
      (if
         List.equal Schema.equal replayed.Mapping.source optimized.Mapping.source
         && List.equal Tgd.equal replayed.Mapping.st_tgds optimized.Mapping.st_tgds
       then None
       else Some "the optimized mapping changes the source relations or their copy tgds");
      tgds (replayed.Mapping.t_tgds, optimized.Mapping.t_tgds);
      Option.map
        (Printf.sprintf
           "the optimized mapping drops the egd of %s, which no I306 action discharges")
        (egd (missing ( = ) replayed.Mapping.egds optimized.Mapping.egds));
      Option.map
        (Printf.sprintf "the optimized mapping keeps the egd of %s, which the log discharges")
        (egd (missing ( = ) optimized.Mapping.egds replayed.Mapping.egds));
      Option.map
        (Printf.sprintf "the optimized mapping drops relation %s, which no fusion removes")
        (rel (missing Schema.equal replayed.Mapping.target optimized.Mapping.target));
      Option.map
        (Printf.sprintf "the optimized mapping declares relation %s, which the log removes")
        (rel (missing Schema.equal optimized.Mapping.target replayed.Mapping.target));
    ]

let verify (r : report) : (unit, string) result =
  let ( let* ) = Result.bind in
  let* st =
    List.fold_left
      (fun acc a ->
        let* st = acc in
        let* raw = verify_action r a in
        replay_action st a raw)
      (Ok { reached = r.original; fusion = None; base = None })
      r.actions
  in
  let* { reached; _ } = close_fusion st in
  match replay_differs reached r.optimized with
  | None -> Ok ()
  | Some d -> Error ("replay: " ^ d)

(* --- rendering --------------------------------------------------------- *)

let diagnostics (r : report) =
  List.map (fun a -> Diagnostic.make ~code:a.code a.detail) r.actions

let json_int n = Obs.Json.Num (float_of_int n)

let certificate_to_json c =
  let open Obs.Json in
  let obj kind fields = Obj (("kind", Str kind) :: fields) in
  match c with
  | Fold_witness { dropped; onto; hom } ->
      obj "fold"
        [
          ("dropped", Str (Tgd.atom_to_string dropped));
          ("onto", Str (Tgd.atom_to_string onto));
          ("witness", Str (Containment.hom_to_string hom));
        ]
  | Egd_merge { relation; dropped_var; kept_var } ->
      obj "egd_merge"
        [ ("relation", Str relation); ("dropped", Str dropped_var); ("kept", Str kept_var) ]
  | Fusion_equivalence { producer; facts_compared } ->
      obj "fusion_equivalence"
        [ ("producer", Str (Tgd.to_string producer)); ("facts_compared", json_int facts_compared) ]
  | Unfolding { producer; unifier; chain } ->
      obj "unfolding"
        [
          ("producer", Str (Tgd.to_string producer));
          ("unifier", Str (Containment.hom_to_string unifier));
          ("chain", List (List.map (fun v -> Str v) chain));
        ]
  | Grid_equality { relation } -> obj "grid_equality" [ ("relation", Str relation) ]
  | Determination { chain } ->
      obj "determination" [ ("chain", List (List.map (fun v -> Str v) chain)) ]

let action_to_json (a : action) =
  let open Obs.Json in
  let opt_tgd name = function
    | None -> []
    | Some t -> [ (name, Str (Tgd.to_string t)) ]
  in
  Obj
    ([ ("code", Str a.code); ("target", Str a.target) ]
    @ opt_tgd "before" a.before
    @ opt_tgd "after" a.after
    @ [ ("detail", Str a.detail); ("certificate", certificate_to_json a.certificate) ])

let report_to_json (r : report) =
  let open Obs.Json in
  let count l = json_int (List.length l) in
  to_string
    (Obj
       [
         ("fuse", Bool r.fused);
         ("tgds_before", count r.original.Mapping.t_tgds);
         ("tgds_after", count r.optimized.Mapping.t_tgds);
         ("egds_before", count r.original.Mapping.egds);
         ("egds_after", count r.optimized.Mapping.egds);
         ("est_matches_before", json_int r.est_before);
         ("est_matches_after", json_int r.est_after);
         ("actions", List (List.map action_to_json r.actions));
       ])
