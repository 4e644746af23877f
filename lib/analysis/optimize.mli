(** exl-opt: the containment-based mapping optimizer.

    A static pass between mapping generation and the chase.  Four
    rewrites — body minimization (core folding and egd-justified atom
    merging), cost-gated fusion of temporaries, outer-combine
    specialization, and egd discharge — each emitting a
    machine-checkable {!certificate}.  {!verify} re-validates every
    certificate independently and replays the action log onto the
    original mapping, which must give the optimized one: a proof check
    that chases nothing but a fusion certified on the critical
    instance. *)

(** The evidence attached to each transformation. *)
type certificate =
  | Fold_witness of {
      dropped : Mappings.Tgd.atom;
      onto : Mappings.Tgd.atom;
      hom : Containment.homomorphism;
    }  (** I302: the core-folding witness for a dropped body atom. *)
  | Egd_merge of { relation : string; dropped_var : string; kept_var : string }
      (** I303: the relation whose functionality egd forces the merged
          measures equal. *)
  | Fusion_equivalence of { producer : Mappings.Tgd.t; facts_compared : int }
      (** I304 not proved by unfolding (a table-function or
          outer-combine consumer, or a side condition that fails): the
          inlined producer; equivalence was established by chasing both
          mappings on the critical instance. *)
  | Unfolding of {
      producer : Mappings.Tgd.t;
      unifier : Containment.homomorphism;
      chain : string list;
    }
      (** I304 into a tuple-level or aggregation consumer, proved
          without a chase: the inlined producer and the unifier
          (consumer variable ↦ term of the fused tgd).  Into a
          tuple-level consumer the unifier is that of the consumer's
          temporary atom with the producer's head, and the chain is the
          determination chain showing the temporary is functional;
          also checked: every partial producer head term is still
          evaluated by the fused tgd, and the chase can run both the
          producer and the fused tgd.  Into an aggregation the unifier
          is restricted to the group-by variables, and the chain names,
          for each dimension variable of the producer's one body atom,
          the head dimension term (itself or a temporal shift of it)
          that recovers it, so the temporary's facts are in bijection
          with the body's; also checked: the body relation is
          functional, every head dimension term is defined, the
          aggregate ignores the order of its bag, and both tgds
          run. *)
  | Grid_equality of { relation : string }
      (** I305: both outer-combine sides read this relation on the same
          dimension terms, so the coalescing default is dead. *)
  | Determination of { chain : string list }
      (** I306: variables, in FD-chase order, showing the head measure
          is determined by the head dimensions ([[]] for tgd shapes
          functional by construction). *)

type action = {
  code : string;  (** The I3xx diagnostic code. *)
  target : string;  (** The relation the transformation concerns. *)
  detail : string;  (** Human-readable one-liner. *)
  before : Mappings.Tgd.t option;
  after : Mappings.Tgd.t option;
  certificate : certificate;
}

type report = {
  original : Mappings.Mapping.t;
  optimized : Mappings.Mapping.t;
  actions : action list;  (** In application order. *)
  est_before : int;
      (** The optimizer's cost estimate of the original mapping: chase
          matches examined plus tuples generated, at cardinality 64 per
          source relation unless [cards] overrides it. *)
  est_after : int;
  fused : bool;  (** Whether the fusion pass was enabled. *)
}

val run :
  ?fuse:bool -> ?cards:(string * int) list -> Mappings.Mapping.t -> report
(** Optimize a mapping.  [fuse] (default [true]) enables the
    cost-gated fusion pass; [cards] overrides the estimated cardinality
    of named source relations (default 64 each). *)

val verify : report -> (unit, string) result
(** Replay the actions in order onto [original], each after an
    independent check of its certificate: a fold's witness is
    re-applied and its recorded result must be the tgd without the
    dropped atom; a merge and an outer specialization are replayed to
    their recorded result; a fusion is recomputed, an unfolding's
    unifier, chain and side conditions re-derived; a determination
    chain is re-chased on the defining tgd.  Each action must rewrite
    tgds the mapping reached so far holds (a fusion's minimization
    steps chaining from its recomputed fused tgd to the recorded one),
    and the result must equal [optimized] — tgds up to the order of
    each body, egds and target schemas.  Each {!Fusion_equivalence}
    fusion is cone-checked again ({!check_fusion} [~unfold:false]) on
    the mapping the replay has reached, against one base carried from
    fusion to fusion as {!run} carries it; nothing else is chased.
    [Error] names the first failing certificate or the first
    mismatch. *)

val equivalent_on_critical :
  Mappings.Mapping.t -> Mappings.Mapping.t -> (int, string) result
(** Chase both mappings over the first one's critical instance and
    compare the second mapping's target relations fact-by-fact (1e-9
    relative float tolerance).  [Ok n] with [n] facts compared, or the
    first difference.  The test oracle of {!verify} and of the fusion
    cone check. *)

(** {1 Fusion checks}

    The optimizer certifies each fusion candidate against the current
    mapping.  A candidate whose consumers, tuple-level or aggregations,
    all pass the unfolding proof is proved with no chase.  Any other is
    checked on the critical instance without re-chasing the current
    mapping: its solution is chased once, on first use, and shared by
    every candidate, and each candidate chases only the relations its
    rewrite can change. *)

type fusion_base
(** A mapping with its critical instance and its solution over it,
    both computed on first use. *)

val fusion_base : Mappings.Mapping.t -> fusion_base

(** How {!check_fusion} certified a candidate. *)
type fusion_proof =
  | Unfolded of (Containment.homomorphism * string list) list
      (** The unifier and determination chain of each fused consumer,
          in the candidate's order: an {!Unfolding} each. *)
  | Chased of int
      (** The facts compared on the critical instance: a
          {!Fusion_equivalence}. *)

val check_fusion :
  ?unfold:bool ->
  fusion_base ->
  Mappings.Mapping.t ->
  (fusion_proof, string) result * fusion_base
(** [check_fusion (fusion_base m) next], for [next] the fusion of one
    temporary of [m], first tries the unfolding proof (unless
    [~unfold:false]).  Otherwise it returns what
    [equivalent_on_critical m next] returns — verdict, facts compared,
    message — by chasing only the cone of [next]: the targets of tgds
    not physically shared with [m] and everything reading them, seeded
    with [m]'s solution for every other relation.  [next] must differ
    from [m] only in its tgds and by dropping the relations and egds of
    tgds it dropped, as a fusion candidate does.  The second component
    is the base to check the next candidate against once [next] is
    committed: [next] with the solution just computed, or [m]'s
    still-lazy one after an unfolding, or — when [next]'s constants,
    and so its critical instance, differ from [m]'s — a fresh base.  On
    [Error] it is the given base. *)

val fusion_candidates :
  ?cards:(string * int) list -> Mappings.Mapping.t -> Mappings.Mapping.t list
(** The mappings the fusion pass would check as the fusion of one
    temporary of the given mapping (cost-gated, fused bodies
    minimized), in the order it tries them. *)

val diagnostics : report -> Diagnostic.t list
(** The actions as I3xx informational diagnostics. *)

val report_to_json : report -> string
(** Machine-readable report: tgd/egd counts before and after, cost
    estimates, and every action with its serialized certificate. *)
