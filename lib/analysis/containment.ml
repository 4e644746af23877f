(* Conjunctive-query containment over tgd bodies.

   The optimizer's decision procedure: a homomorphism from the body
   (and head) of one tuple-level tgd into another witnesses that the
   first subsumes the second (Calì & Torlone, Containment of Schema
   Mappings for Data Exchange).  The same machinery decides when a
   body atom is redundant (the classical core/minimization step of
   Chandra & Merlin, restricted to a one-atom folding) and when two
   body atoms over the same functional relation can be merged.

   Terms are first pushed through {!Mappings.Term.normalize_shift} and
   the identity-element simplifier below, so shift sugar and neutral
   arithmetic ([m + 0], [m * 1], ...) never block a syntactic match. *)

module Tgd = Mappings.Tgd
module Term = Mappings.Term
module Egd = Mappings.Egd
module Mapping = Mappings.Mapping

type homomorphism = (string * Term.t) list
(* Variable-to-term substitution, found by the search below; the empty
   list is the identity. *)

let hom_to_string (h : homomorphism) =
  "{"
  ^ String.concat ", "
      (List.map (fun (v, t) -> v ^ " ↦ " ^ Term.to_string t) h)
  ^ "}"

let apply_hom (h : homomorphism) t = Term.substitute (fun v -> List.assoc_opt v h) t

(* --- term normalization --------------------------------------------- *)

let is_const_float f = function
  | Term.Const c -> (
      match Matrix.Value.to_float c with Some x -> x = f | None -> false)
  | _ -> false

(* Remove neutral elements and double negations; bottom-up, so nested
   identities collapse ([ (m + 0) * 1 ] → [m]). *)
let rec simplify (t : Term.t) : Term.t =
  match t with
  | Term.Var _ | Term.Const _ -> t
  | Term.Shifted (t, 0) -> simplify t
  | Term.Shifted (t, k) -> Term.Shifted (simplify t, k)
  | Term.Dim_fn (f, t) -> Term.Dim_fn (f, simplify t)
  | Term.Scalar_fn (f, ps, t) -> Term.Scalar_fn (f, ps, simplify t)
  | Term.Neg t -> (
      match simplify t with Term.Neg u -> u | u -> Term.Neg u)
  | Term.Coalesce (a, b) ->
      let a = simplify a and b = simplify b in
      if Term.equal a b then a else Term.Coalesce (a, b)
  | Term.Binapp (op, a, b) -> (
      let a = simplify a and b = simplify b in
      match op with
      | Ops.Binop.Add when is_const_float 0. a -> b
      | (Ops.Binop.Add | Ops.Binop.Sub) when is_const_float 0. b -> a
      | Ops.Binop.Mul when is_const_float 1. a -> b
      | (Ops.Binop.Mul | Ops.Binop.Div | Ops.Binop.Pow)
        when is_const_float 1. b ->
          a
      | _ -> Term.Binapp (op, a, b))

let normalize_term t = simplify (Term.normalize_shift t)

let normalize_atom (a : Tgd.atom) =
  { a with Tgd.args = List.map normalize_term a.Tgd.args }

(* --- homomorphism search -------------------------------------------- *)

(* Extend [sub] so that [pattern] under the substitution becomes
   exactly [target].  Pattern variables bind to arbitrary target
   subterms; all other constructors must match structurally. *)
let rec match_term (sub : homomorphism) (pattern : Term.t) (target : Term.t) :
    homomorphism option =
  match pattern with
  | Term.Var v -> (
      match List.assoc_opt v sub with
      | Some bound -> if Term.equal bound target then Some sub else None
      | None -> Some ((v, target) :: sub))
  | Term.Const a -> (
      match target with
      | Term.Const b when Matrix.Value.equal a b -> Some sub
      | _ -> None)
  | Term.Shifted (a, k) -> (
      match target with
      | Term.Shifted (b, l) when k = l -> match_term sub a b
      | _ -> None)
  | Term.Dim_fn (f, a) -> (
      match target with
      | Term.Dim_fn (g, b) when f = g -> match_term sub a b
      | _ -> None)
  | Term.Scalar_fn (f, ps, a) -> (
      match target with
      | Term.Scalar_fn (g, qs, b) when f = g && ps = qs -> match_term sub a b
      | _ -> None)
  | Term.Binapp (op, a1, a2) -> (
      match target with
      | Term.Binapp (op', b1, b2) when op = op' ->
          Option.bind (match_term sub a1 b1) (fun sub -> match_term sub a2 b2)
      | _ -> None)
  | Term.Neg a -> (
      match target with Term.Neg b -> match_term sub a b | _ -> None)
  | Term.Coalesce (a1, a2) -> (
      match target with
      | Term.Coalesce (b1, b2) ->
          Option.bind (match_term sub a1 b1) (fun sub -> match_term sub a2 b2)
      | _ -> None)

let match_atom sub (pattern : Tgd.atom) (target : Tgd.atom) =
  if
    pattern.Tgd.rel <> target.Tgd.rel
    || List.length pattern.Tgd.args <> List.length target.Tgd.args
  then None
  else
    List.fold_left2
      (fun acc p t -> Option.bind acc (fun sub -> match_term sub p t))
      (Some sub) pattern.Tgd.args target.Tgd.args

(* --- tgd subsumption ------------------------------------------------- *)

(* [subsumes ~general ~specific] holds when a homomorphism maps
   [general]'s body and head onto [specific]'s: then every fact
   [specific] derives, [general] also derives, so [specific] is
   redundant next to [general].  Only meaningful for tuple-level tgds
   with the same target relation. *)
let subsumes ~(general : Tgd.t) ~(specific : Tgd.t) : homomorphism option =
  match (general, specific) with
  | ( Tgd.Tuple_level { lhs = g_lhs; rhs = g_rhs },
      Tgd.Tuple_level { lhs = s_lhs; rhs = s_rhs } )
    when g_rhs.Tgd.rel = s_rhs.Tgd.rel ->
      let from_body = List.map normalize_atom g_lhs in
      let into_body = List.map normalize_atom s_lhs in
      let rec search sub = function
        | [] -> Some sub
        | atom :: rest ->
            List.find_map
              (fun candidate ->
                Option.bind (match_atom sub atom candidate) (fun sub ->
                    search sub rest))
              into_body
      in
      Option.bind
        (match_atom [] (normalize_atom g_rhs) (normalize_atom s_rhs))
        (fun sub -> search sub from_body)
  | _ -> None

let equivalent a b =
  match (subsumes ~general:a ~specific:b, subsumes ~general:b ~specific:a) with
  | Some h1, Some h2 -> Some (h1, h2)
  | _ -> None

(* --- redundant body atoms -------------------------------------------- *)

(* A body atom [a] is redundant when it folds onto another body atom
   [b]: variables occurring only in [a] (not in the head, not in the
   rest of the body) may bind freely, every other variable is fixed.
   This is the one-atom instance of the core computation; the fold is
   an endomorphism of the body fixing the head, so dropping [a] keeps
   the tgd equivalent. *)
let redundant_atom ~(head : Tgd.atom) ~(body : Tgd.atom list) (a : Tgd.atom) :
    (Tgd.atom * homomorphism) option =
  let rest = List.filter (fun b -> not (b == a)) body in
  if List.length rest = List.length body then None
  else
    let outside_vars =
      List.sort_uniq String.compare
        (Tgd.atom_vars head @ List.concat_map Tgd.atom_vars rest)
    in
    let seed = List.map (fun v -> (v, Term.Var v)) outside_vars in
    List.find_map
      (fun b ->
        Option.map
          (fun sub -> (b, sub))
          (match_atom seed (normalize_atom a) (normalize_atom b)))
      rest

(* --- functional atom merge ------------------------------------------- *)

let split_atom (a : Tgd.atom) =
  match List.rev a.Tgd.args with
  | meas :: rev_dims -> (List.rev rev_dims, Some meas)
  | [] -> ([], None)

(* Two body atoms over the same relation whose dimension terms coincide
   syntactically must agree on the measure by that relation's
   functionality egd; when both measures are distinct variables the
   second atom can be dropped after renaming its measure variable to
   the first's.  Returns (kept atom, dropped atom, dropped var, kept
   var). *)
let mergeable_atoms ~(body : Tgd.atom list) =
  let rec pick = function
    | [] -> None
    | a :: rest ->
        let da, ma = split_atom (normalize_atom a) in
        let candidate =
          List.find_map
            (fun b ->
              if a.Tgd.rel <> b.Tgd.rel then None
              else
                let db, mb = split_atom (normalize_atom b) in
                match (ma, mb) with
                | Some (Term.Var va), Some (Term.Var vb)
                  when va <> vb
                       && List.length da = List.length db
                       && List.for_all2 Term.equal da db ->
                    Some (a, b, vb, va)
                | _ -> None)
            rest
        in
        (match candidate with Some _ -> candidate | None -> pick rest)
  in
  pick body

(* --- functional determination ---------------------------------------- *)

(* Variables recoverable from a dimension term: injective wrappers
   preserve information, everything else loses it.  Mirrors the E203
   analysis in {!Map_lints}. *)
let rec recoverable_vars (t : Term.t) =
  match t with
  | Term.Var v -> [ v ]
  | Term.Const _ -> []
  | Term.Shifted (t, _) | Term.Neg t -> recoverable_vars t
  | Term.Dim_fn _ | Term.Scalar_fn _ | Term.Binapp _ | Term.Coalesce _ -> []

(* Chase the functional dependencies [dims → measure] of the body
   relations: starting from the variables recoverable from the head
   dimensions, an atom whose dimension variables are all determined
   also determines its measure.  When the head measure ends up
   determined, the target's functionality egd is implied by the tgd —
   the laconic/discharge condition.  Returns the determination chain
   (variables in the order they became known) as the certificate
   payload. *)
let fd_determines ~(body : Tgd.atom list) ~(head : Tgd.atom) :
    string list option =
  let head_dims, head_meas = split_atom head in
  let determined = Hashtbl.create 8 in
  let chain = ref [] in
  let know v =
    if not (Hashtbl.mem determined v) then begin
      Hashtbl.replace determined v ();
      chain := v :: !chain
    end
  in
  List.iter (fun t -> List.iter know (recoverable_vars t)) head_dims;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (a : Tgd.atom) ->
        let dims, meas = split_atom a in
        let dims_known =
          List.for_all
            (fun t -> List.for_all (Hashtbl.mem determined) (Term.vars t))
            dims
        in
        if dims_known then
          match meas with
          | Some mt ->
              List.iter
                (fun v ->
                  if not (Hashtbl.mem determined v) then begin
                    know v;
                    changed := true
                  end)
                (Term.vars mt)
          | None -> ())
      body
  done;
  let meas_vars = match head_meas with Some t -> Term.vars t | None -> [] in
  if List.for_all (Hashtbl.mem determined) meas_vars then
    Some (List.rev !chain)
  else None

(* --- identities ------------------------------------------------------ *)

(* A tuple-level tgd that merely copies a relation: single body atom,
   head arguments syntactically identical after normalization.  The
   basis of lint W106 and of the optimizer's copy collapse. *)
let is_identity (tgd : Tgd.t) =
  match tgd with
  | Tgd.Tuple_level { lhs = [ a ]; rhs } ->
      rhs.Tgd.rel <> a.Tgd.rel
      && List.length a.Tgd.args = List.length rhs.Tgd.args
      (* every argument must be a distinct plain variable: a constant
         or a repeated variable in the body atom is a selection, which
         copies only a slice *)
      && (let vars =
            List.filter_map
              (fun t -> match t with Term.Var v -> Some v | _ -> None)
              a.Tgd.args
          in
          List.length vars = List.length a.Tgd.args
          && List.length (List.sort_uniq String.compare vars)
             = List.length vars)
      && List.for_all2 Term.equal
           (List.map normalize_term a.Tgd.args)
           (List.map normalize_term rhs.Tgd.args)
  | _ -> false
