(** Conjunctive-query containment over tgd bodies.

    Decision procedures the optimizer and the lints build on: body
    homomorphisms (with witness substitutions), tgd subsumption and
    equivalence, redundant-body-atom detection (one-atom core folding),
    egd-justified duplicate-atom merging, and provable identities.
    All matching happens after {!Mappings.Term.normalize_shift} plus
    neutral-element simplification, so surface sugar never blocks a
    match. *)

type homomorphism = (string * Mappings.Term.t) list
(** A variable-to-term substitution; the witness object every
    containment-based certificate carries. *)

val hom_to_string : homomorphism -> string
(** [{x ↦ q + 1, m ↦ r1}] — the rendering used in I3xx messages. *)

val apply_hom : homomorphism -> Mappings.Term.t -> Mappings.Term.t

val normalize_term : Mappings.Term.t -> Mappings.Term.t
(** {!Mappings.Term.normalize_shift}, then removal of neutral elements
    ([m + 0], [m * 1], [m / 1], double negation, [shift _ 0], trivial
    coalesce), bottom-up. *)

val normalize_atom : Mappings.Tgd.atom -> Mappings.Tgd.atom

val match_term :
  homomorphism ->
  Mappings.Term.t ->
  Mappings.Term.t ->
  homomorphism option
(** Extend a substitution so the first (pattern) term maps onto the
    second; pattern variables bind to arbitrary target subterms. *)

val match_atom :
  homomorphism ->
  Mappings.Tgd.atom ->
  Mappings.Tgd.atom ->
  homomorphism option
(** Extend a substitution so the first atom maps onto the second;
    pattern variables bind to arbitrary target subterms, everything
    else is structural. *)

val equivalent :
  Mappings.Tgd.t -> Mappings.Tgd.t -> (homomorphism * homomorphism) option
(** Mutual subsumption, with both witnesses: each tgd's body and head
    map onto the other's by a homomorphism, so each derives every fact
    the other derives.  Tuple-level tgds with equal target only. *)

val redundant_atom :
  head:Mappings.Tgd.atom ->
  body:Mappings.Tgd.atom list ->
  Mappings.Tgd.atom ->
  (Mappings.Tgd.atom * homomorphism) option
(** [redundant_atom ~head ~body a] finds an atom of [body] that [a]
    folds onto while fixing every variable used outside [a]; dropping
    [a] then keeps the tgd equivalent (one-atom core step).  Returns
    the fold target and the witness. *)

val split_atom :
  Mappings.Tgd.atom -> Mappings.Term.t list * Mappings.Term.t option
(** Dimension terms and measure term (the last argument). *)

val mergeable_atoms :
  body:Mappings.Tgd.atom list ->
  (Mappings.Tgd.atom * Mappings.Tgd.atom * string * string) option
(** Two body atoms over the same relation with syntactically equal
    dimension terms and distinct measure variables: the relation's
    functionality egd forces the measures equal, so the second atom can
    be dropped after renaming.  Returns
    [(kept, dropped, dropped_var, kept_var)]. *)

val fd_determines :
  body:Mappings.Tgd.atom list ->
  head:Mappings.Tgd.atom ->
  string list option
(** Chase the body relations' functional dependencies from the head
    dimensions; [Some chain] (variables in determination order) when
    the head measure is functionally determined — the target's egd is
    then implied by the tgd and can be discharged. *)

val is_identity : Mappings.Tgd.t -> bool
(** A tuple-level tgd that merely copies another relation: a single
    body atom whose arguments are pairwise-distinct plain variables
    (a constant or repeated variable would be a selection), with head
    arguments identical after normalization — the W106 condition. *)
