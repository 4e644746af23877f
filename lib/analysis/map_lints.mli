(** Mapping-level static checks (E2xx / W2xx codes).

    - [E201] unsafe tgd (head variable unbound in the body), reported
      per variable and cross-checked against [Tgd.is_safe];
    - [E202] weak-acyclicity violation (via {!Acyclicity});
    - [E203] functionality egd not implied by the defining tgd,
      decided by chasing functional dependencies over the body atoms;
    - [E204] stratification failure, from [Stratify.check] plus an
      independent cross-validation of [Stratify.levels];
    - [W205] target relation never produced by any tgd. *)

val run : Mappings.Mapping.t -> Diagnostic.t list
(** Every check above, E202 through {!Acyclicity.diagnose}, sorted. *)
