(* Mapping-level static checks (E2xx / W2xx).

   These run on a [Mappings.Mapping.t] — usually the output of
   [Mappings.Generate] — and certify the properties the chase relies
   on: tgd safety (E201), weak acyclicity (E202, via {!Acyclicity}),
   egd consistency (E203), stratification (E204), and production of
   every target relation (W205). *)

module Mapping = Mappings.Mapping
module Tgd = Mappings.Tgd
module Term = Mappings.Term
module Stratify = Mappings.Stratify

(* --- E201: safety (range restriction) ------------------------------ *)

let atom_to_string (a : Tgd.atom) =
  Printf.sprintf "%s(%s)" a.Tgd.rel
    (String.concat ", " (List.map Term.to_string a.Tgd.args))

(* A tgd is safe when every variable the head uses is bound by some
   body atom; otherwise the chase would have to invent bindings.  We
   report each unbound variable, and cross-check the per-variable
   analysis against [Tgd.is_safe] so the two can never drift apart
   silently. *)
let safety_of_tgd (tgd : Tgd.t) =
  let unbound bound vars = List.filter (fun v -> not (List.mem v bound)) vars in
  let findings =
    match tgd with
    | Tgd.Tuple_level { lhs; rhs } ->
        let bound = List.concat_map Tgd.atom_vars lhs in
        List.map
          (fun v ->
            Diagnostic.makef ~code:"E201"
              "unsafe tgd for %s: head variable %s is not bound by any body \
               atom (in %s)"
              rhs.Tgd.rel v (Tgd.to_string tgd))
          (unbound bound (Tgd.atom_vars rhs))
    | Tgd.Aggregation { source; group_by; measure; target; _ } ->
        let bound = Tgd.atom_vars source in
        let key_vars = List.concat_map Term.vars group_by in
        let missing = unbound bound (key_vars @ [ measure ]) in
        List.map
          (fun v ->
            Diagnostic.makef ~code:"E201"
              "unsafe aggregation tgd for %s: variable %s is not bound by \
               the source atom"
              target v)
          missing
    | Tgd.Table_fn _ -> []
    | Tgd.Outer_combine { left; right; target; _ } ->
        let bad_atom (a : Tgd.atom) =
          if List.for_all Term.is_var a.Tgd.args then []
          else
            [
              Diagnostic.makef ~code:"E201"
                "unsafe outer-combine tgd for %s: atom %s uses non-variable \
                 arguments"
                target (atom_to_string a);
            ]
        in
        bad_atom left @ bad_atom right
  in
  (* cross-check: our detailed analysis and the engine's own safety
     predicate must agree *)
  if findings = [] && not (Tgd.is_safe tgd) then
    [
      Diagnostic.makef ~code:"E201" "unsafe tgd for %s: %s"
        (Tgd.target_relation tgd) (Tgd.to_string tgd);
    ]
  else findings

let safety (m : Mapping.t) =
  List.concat_map safety_of_tgd (m.Mapping.st_tgds @ m.Mapping.t_tgds)

(* --- E203: egd consistency ------------------------------------------ *)

(* Every cube relation satisfies the functionality egd
   [dims -> measure] by construction of its instances.  A tgd is
   consistent with its target's egd when the head measure is
   functionally determined by the head dimensions, given that every
   body relation is itself functional.  We chase the functional
   dependencies: starting from the variables recoverable from the head
   dimensions, a body atom whose dimension positions are all
   determined also determines its measure variable (by that
   relation's own egd).  If the head measure's variables end up
   determined, two tuples agreeing on the head dims must agree on the
   measure. *)

(* Variables recoverable from a dimension term: injective wrappers
   ([Shifted], [Neg]) preserve information; [Dim_fn]/[Scalar_fn]/
   [Binapp]/[Coalesce] lose it, so their variables are not
   recoverable. *)
let rec recoverable_vars (t : Term.t) =
  match t with
  | Term.Var v -> [ v ]
  | Term.Const _ -> []
  | Term.Shifted (t, _) | Term.Neg t -> recoverable_vars t
  | Term.Dim_fn _ | Term.Scalar_fn _ | Term.Binapp _ | Term.Coalesce _ -> []

let egd_consistency (m : Mapping.t) =
  let has_egd rel =
    List.exists (fun (e : Mappings.Egd.t) -> e.Mappings.Egd.relation = rel) m.Mapping.egds
  in
  let check_tuple_level (lhs : Tgd.atom list) (rhs : Tgd.atom) tgd =
    let split (a : Tgd.atom) =
      match List.rev a.Tgd.args with
      | meas :: rev_dims -> (List.rev rev_dims, Some meas)
      | [] -> ([], None)
    in
    let head_dims, head_meas = split rhs in
    let determined = Hashtbl.create 8 in
    List.iter
      (fun t ->
        List.iter (fun v -> Hashtbl.replace determined v ()) (recoverable_vars t))
      head_dims;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (a : Tgd.atom) ->
          let dims, meas = split a in
          let dims_known =
            List.for_all
              (fun t ->
                List.for_all (Hashtbl.mem determined) (Term.vars t))
              dims
          in
          if dims_known then
            match meas with
            | Some mt ->
                List.iter
                  (fun v ->
                    if not (Hashtbl.mem determined v) then begin
                      Hashtbl.replace determined v ();
                      changed := true
                    end)
                  (Term.vars mt)
            | None -> ())
        lhs
    done;
    let meas_vars =
      match head_meas with Some t -> Term.vars t | None -> []
    in
    let undetermined =
      List.filter (fun v -> not (Hashtbl.mem determined v)) meas_vars
    in
    if undetermined = [] then []
    else
      [
        Diagnostic.makef ~code:"E203"
          "egd %s(dims) -> measure is not implied by its defining tgd: \
           measure variable%s %s not determined by the head dimensions (in \
           %s)"
          rhs.Tgd.rel
          (if List.length undetermined > 1 then "s" else "")
          (String.concat ", " undetermined)
          (Tgd.to_string tgd);
      ]
  in
  List.concat_map
    (fun tgd ->
      match tgd with
      | Tgd.Tuple_level { lhs; rhs } when has_egd rhs.Tgd.rel ->
          check_tuple_level lhs rhs tgd
      | Tgd.Tuple_level _ -> []
      (* Aggregations key their output by the group-by terms, table
         functions and outer combines preserve the dimension grid —
         all functional by construction. *)
      | Tgd.Aggregation _ | Tgd.Table_fn _ | Tgd.Outer_combine _ -> [])
    (m.Mapping.st_tgds @ m.Mapping.t_tgds)

(* --- E204: stratification ------------------------------------------- *)

let stratification (m : Mapping.t) =
  match Result.bind (Stratify.check m) (fun () -> Stratify.levels m) with
  | Error msg -> [ Diagnostic.makef ~code:"E204" "stratification failure: %s" msg ]
  | Ok levels ->
      (* cross-validate the level structure: every tgd's sources must
         sit strictly below its target *)
      let level_of name = Option.value ~default:0 (List.assoc_opt name levels) in
      List.concat_map
        (fun tgd ->
          let target = Tgd.target_relation tgd in
          List.filter_map
            (fun src ->
              if src <> target && level_of src >= level_of target then
                Some
                  (Diagnostic.makef ~code:"E204"
                     "stratification failure: source %s (level %d) does not \
                      precede target %s (level %d)"
                     src (level_of src) target (level_of target))
              else None)
            (Tgd.source_relations tgd))
        m.Mapping.t_tgds

(* --- W205: unproduced target relation ------------------------------- *)

let unproduced_targets (m : Mapping.t) =
  let produced = Hashtbl.create 16 in
  (* the chase copies every source relation into the target instance
     before applying tgds, so source relations count as produced *)
  List.iter
    (fun s -> Hashtbl.replace produced s.Matrix.Schema.name ())
    m.Mapping.source;
  List.iter
    (fun tgd -> Hashtbl.replace produced (Tgd.target_relation tgd) ())
    (m.Mapping.st_tgds @ m.Mapping.t_tgds);
  List.filter_map
    (fun s ->
      let name = s.Matrix.Schema.name in
      if Hashtbl.mem produced name then None
      else
        Some
          (Diagnostic.makef ~code:"W205"
             "target relation %s is never produced by any tgd" name))
    m.Mapping.target

(* --- W106: provable identity ----------------------------------------- *)

(* A user-written statement whose tgd merely copies another user cube
   after normalization ([B := A;], or [B := A + 0;] once neutral
   elements are simplified).  Temporaries are skipped on both sides:
   a temp target is not a statement, and an identity reading a temp is
   an artifact of normalization, not of the program. *)
let identities (m : Mapping.t) =
  List.filter_map
    (fun tgd ->
      let target = Tgd.target_relation tgd in
      if Exl.Normalize.is_temp target then None
      else if
        Containment.is_identity tgd
        && not
             (List.exists Exl.Normalize.is_temp (Tgd.source_relations tgd))
      then
        Some
          (Diagnostic.makef ~code:"W106"
             "%s is a provable identity after normalization: it merely \
              copies %s"
             target
             (match Tgd.source_relations tgd with
             | r :: _ -> r
             | [] -> "its operand"))
      else None)
    m.Mapping.t_tgds

let run (m : Mapping.t) =
  Diagnostic.sort
    (safety m @ Acyclicity.diagnose m @ egd_consistency m @ stratification m
   @ unproduced_targets m @ identities m)
