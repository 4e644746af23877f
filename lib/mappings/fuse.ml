(* The [k] of a variable named [f<k>_...], the prefix a fusion step
   gives the producer's variables. *)
let fusion_index v =
  match String.index_opt v '_' with
  | Some i when i > 1 && v.[0] = 'f' -> int_of_string_opt (String.sub v 1 (i - 1))
  | _ -> None

(* Rename the producer's variables apart with the prefix [f<n>_], [n]
   one above every fusion index among [vars] (all variables of both
   tgds): no renamed variable can then capture one of the consumer's,
   even when re-fusing a fused mapping, and the names depend only on
   the two tgds, not on how many fusions ran before. *)
let freshen_tgd_vars ~vars lhs rhs =
  let n =
    List.fold_left
      (fun n v -> match fusion_index v with Some k -> max n k | None -> n)
      0 vars
  in
  let prefix = Printf.sprintf "f%d_" (n + 1) in
  let rn (a : Tgd.atom) =
    { a with Tgd.args = List.map (Term.rename ~prefix) a.Tgd.args }
  in
  (List.map rn lhs, rn rhs)

let atoms_vars atoms = List.concat_map Tgd.atom_vars atoms

(* Substitute one variable by a term inside an atom list. *)
let subst_atoms v term atoms =
  let f x = if x = v then Some term else None in
  List.map
    (fun (a : Tgd.atom) -> { a with Tgd.args = List.map (Term.substitute f) a.Tgd.args })
    atoms

exception Not_fusable

let fuse_step ~producer ~consumer =
  match (producer, consumer) with
  | ( Tgd.Tuple_level { lhs = p_lhs; rhs = p_rhs },
      Tgd.Tuple_level { lhs = c_lhs; rhs = c_rhs } ) -> (
      let temp = p_rhs.Tgd.rel in
      match List.partition (fun (a : Tgd.atom) -> a.Tgd.rel = temp) c_lhs with
      | [ temp_atom ], other_atoms -> (
          let p_lhs, p_rhs =
            freshen_tgd_vars
              ~vars:(atoms_vars ((c_rhs :: c_lhs) @ (p_rhs :: p_lhs)))
              p_lhs p_rhs
          in
          (* Mutable working copies; each solved constraint is applied
             immediately everywhere, so later pairs see current terms. *)
          let prod_atoms = ref p_lhs in
          let cons_atoms = ref other_atoms in
          let cons_rhs = ref [ c_rhs ] in
          let pairs =
            ref (List.combine temp_atom.Tgd.args p_rhs.Tgd.args)
          in
          let apply v term =
            prod_atoms := subst_atoms v term !prod_atoms;
            cons_atoms := subst_atoms v term !cons_atoms;
            cons_rhs := subst_atoms v term !cons_rhs;
            pairs :=
              List.map
                (fun (u, s) ->
                  let f x = if x = v then Some term else None in
                  (Term.substitute f u, Term.substitute f s))
                !pairs
          in
          try
            let rec solve () =
              match !pairs with
              | [] -> ()
              | (u, s) :: rest ->
                  pairs := rest;
                  (match (u, s) with
                  | _ when Term.equal u s -> ()
                  | _, Term.Var v -> apply v u
                  | Term.Var v, _ -> apply v s
                  | _ -> raise Not_fusable);
                  solve ()
            in
            solve ();
            match !cons_rhs with
            | [ rhs ] ->
                Some (Tgd.Tuple_level { lhs = !cons_atoms @ !prod_atoms; rhs })
            | _ -> None
          with Not_fusable -> None)
      | _ -> None)
  | _ -> None

(* Inline a single-atom tuple-level producer into an aggregation
   consumer.  The consumer's source-atom variables bind to the
   producer's head terms; group-by keys are rewritten through that
   binding (an aggregation over a shifted operand must shift its keys
   too — substituting the source atom alone would change semantics at
   window boundaries).  The aggregated measure must stay a plain
   variable, so producers computing a complex measure are not
   fusable into aggregations. *)
let fuse_step_agg ~producer ~consumer =
  match (producer, consumer) with
  | ( Tgd.Tuple_level { lhs = [ p_atom ]; rhs = p_rhs },
      Tgd.Aggregation { source; group_by; aggr; measure; target } )
    when source.Tgd.rel = p_rhs.Tgd.rel
         && List.length source.Tgd.args = List.length p_rhs.Tgd.args -> (
      let p_lhs, p_rhs =
        freshen_tgd_vars
          ~vars:
            ((measure :: List.concat_map Term.vars group_by)
            @ atoms_vars [ source; p_atom; p_rhs ])
          [ p_atom ] p_rhs
      in
      let p_atom = List.hd p_lhs in
      let rec bind acc = function
        | [] -> Some acc
        | (Term.Var v, t) :: rest -> (
            match List.assoc_opt v acc with
            | Some t' when Term.equal t t' -> bind acc rest
            | Some _ -> None
            | None -> bind ((v, t) :: acc) rest)
        | _ -> None
      in
      match bind [] (List.combine source.Tgd.args p_rhs.Tgd.args) with
      | None -> None
      | Some sub -> (
          let subst t = Term.substitute (fun v -> List.assoc_opt v sub) t in
          match List.assoc_opt measure sub with
          | Some (Term.Var m') ->
              Some
                (Tgd.Aggregation
                   {
                     source = p_atom;
                     group_by = List.map subst group_by;
                     aggr;
                     measure = m';
                     target;
                   })
          | _ -> None))
  | _ -> None
