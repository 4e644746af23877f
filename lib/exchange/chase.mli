(** The stratified chase for extended tgds (paper, Section 4.2).

    The data-exchange problem: given [M = (S, T, Σst, Σt)] and a finite
    source instance [I], find [J] over [T] with [⟨I, J⟩ ⊨ Σst] and
    [J ⊨ Σt].  The paper's variation of the classical chase applies the
    statement tgds in their stratification order, completely applying
    each before moving to the next; termination follows because all
    tgds are full and acyclic, and failure is impossible because every
    tgd computes the measure as a function of the dimensions — which we
    do not assume but {e check}, by running the functionality egds on
    the produced fact sets. *)

type stats = {
  mutable matches_examined : int;
      (** candidate lhs assignments enumerated *)
  mutable tuples_generated : int;  (** new facts added *)

  mutable tgds_applied : int;
  mutable egd_checks : int;  (** fact pairs compared for functionality *)
  mutable nulls_created : int;
      (** non-core overhead: facts emitted into temporary relations
          (the labelled-null padding of a non-core solution) plus
          defaults substituted for missing outer-combine sides *)
  mutable rounds : int;
      (** evaluation rounds executed by the driver: one per stratum for
          {!run}, one per fixpoint iteration for {!run_naive} *)
}

val run :
  ?columnar:bool ->
  Mappings.Mapping.t ->
  Instance.t ->
  (Instance.t * stats, string) result
(** Solve the data exchange problem by one stratified pass: the
    strata of [Stratify.strata] (tgds grouped by the dependency depth
    of their target, whatever their statement order) run in dependency
    order, and each tgd of a stratum is applied once, completely,
    against the full instance through the persistent {!Instance}
    indexes — a stratum reads only lower strata, so nothing it derives
    feeds it again.  [Error "chase failed: ..."] naming the relation
    when two tgds write one relation (one writer per relation, E204),
    when a tgd writes a relation the mapping does not declare, or when
    the tgds are recursive ("relation R depends on itself"); [Error]
    also on egd violation (chase failure) or on a tgd that cannot be
    evaluated (a variable occurring only under uninvertible terms).

    [columnar] (default [true]) routes kernel-able tgds — all-variable
    selections/projections, two-atom equi-joins, dimension-keyed
    aggregations — through vectorized kernels over each relation's
    dictionary-encoded column view ({!Instance.view}), and installs
    Σst source copies as the sources' shared views instead of
    row-by-row.  The solution, the result, and every [stats]
    counter are identical to the row path's (the kernels replay its
    iteration order, counting, and error rules); only wall-clock time
    and index telemetry differ.  [~columnar:false] is the row-evaluator
    oracle; the row evaluator also runs every tgd the kernels do not
    handle. *)

val run_naive :
  Mappings.Mapping.t ->
  Instance.t ->
  (Instance.t * stats, string) result
(** Textbook naive evaluation, kept as the test oracle and benchmark
    baseline: every round clears and fully re-derives each target in
    canonical (target-name) order — no ordering oracle, no persistent
    indexes, Σst copied row by row — until a round changes nothing.
    Same solution as {!run}, and it refuses the mappings {!run}
    refuses, with the same message. *)

type fact_delta = { added : Instance.fact list; removed : Instance.fact list }
(** A change to one relation's fact set.  A revision of a key is its
    old fact in [removed] and its new fact in [added]. *)

type incr_stats = {
  mutable input_facts : int;  (** net input delta facts applied *)
  mutable strata_total : int;
  mutable strata_skipped : int;
      (** strata no delta reached — not evaluated at all *)
  mutable strata_delta : int;
      (** strata repaired by deltas alone: signed-delta tuple-level
          tgds and group-scoped aggregations *)
  mutable strata_rederived : int;
      (** strata where some tgd was rebuilt DRed-style (blackbox and
          outer tgds) *)
  mutable facts_rederived : int;
      (** facts (re)derived during propagation: facts a signed delta
          inserts, groups re-aggregated into a new fact, facts a DRed
          rerun emits — compare with the solution's total fact count
          for the work saved *)
}

val empty_incr_stats : unit -> incr_stats

type incr_state
(** Per-solution state of {!incremental}, kept per tgd (under its
    target relation, which only that tgd writes): for every
    aggregation tgd, the multiset of measures currently contributing
    to each group; for every tuple-level tgd repaired by signed delta,
    the number of lhs matches deriving each target fact.  Either is
    built by one full enumeration the first time a batch touches its
    tgd and maintained by deltas afterwards; a tgd that keeps state is
    never rederived DRed-style.  Opaque and mutable; create one with the
    solution ({!create_incr_state}, right after the {!run} that
    produced it) and pass it to every {!incremental} call repairing
    that solution — it must be discarded together with the solution
    instance. *)

val create_incr_state : unit -> incr_state

val incremental :
  state:incr_state ->
  Mappings.Mapping.t ->
  solution:Instance.t ->
  deltas:(string * fact_delta) list ->
  (stats * incr_stats * (string * fact_delta) list, string) result
(** Incrementally repair a previous full solution after source-fact
    changes, in place.  [solution] is the instance a prior {!run} of
    the same mapping produced (it contains both the Σst source copies
    and every derived relation, plus their persistent indexes);
    [deltas] are the not-yet-applied changes to source relations, at
    most one per relation ([Error] otherwise).

    The deltas are first applied to [solution] (set semantics: only
    genuinely new/removed facts propagate), then the strata
    {!run} evaluates are re-evaluated in order; a stratum no delta reaches
    is skipped outright.  Each touched tgd's plan follows from its
    shape alone:
    - a tuple-level tgd is repaired by {e signed delta}: with old = new − added + removed, the change
      Σᵢ Q(new₍<i₎, addedᵢ − removedᵢ, old₍>i₎) adds and subtracts
      derivation counts, and a target fact is removed only when its
      count reaches 0 and inserted only when it rises from 0 — for
      insertions and deletions alike.  When that plan is estimated
      dearer than one enumeration over the current state (or the tgd
      has no counts yet) the counts are recounted and diffed instead,
      with the same result;
    - an aggregation tgd re-aggregates only the groups its source
      delta falls in;
    - every other touched tgd (blackbox, outer combine) is rederived
      DRed-style — its target is over-deleted and re-run from its
      updated sources, and the old-vs-new diff becomes the (compact)
      delta for the strata above.
    Functionality egds are re-checked on every touched target.  A
    from-scratch {!run} on the updated sources is the oracle the
    repair is tested against.

    On success the repaired [solution] equals what a from-scratch
    {!run} on the updated sources would produce, and the result also
    carries the net change of every relation that changed, sources
    included (sorted by relation name): applying [removed] then
    [added] to a relation's previous contents gives its new
    contents.

    [Error] without touching [solution] when {!run} would refuse the
    mapping: two writers of one relation, an undeclared target, or
    recursive tgds.
    On any other [Error] the solution may be partially repaired;
    callers keeping the instance (and [state]) across batches must
    discard both. *)

