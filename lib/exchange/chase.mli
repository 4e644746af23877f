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
  mutable rounds : int;  (** evaluation rounds executed by the driver *)
}

val empty_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** Fold per-task counters into an accumulator ([rounds] excluded — it
    is driver bookkeeping, never task-local). *)

val run :
  ?check_egds:bool ->
  ?executor:((unit -> unit) list -> unit) ->
  ?columnar:bool ->
  Mappings.Mapping.t ->
  Instance.t ->
  (Instance.t * stats, string) result
(** Solve the data exchange problem by stratified semi-naive
    evaluation: strata run in level order; round one of a stratum
    evaluates against the full instance through the persistent
    {!Instance} indexes, later rounds join only the previous round's
    delta.  [Error] on egd violation (chase failure) or on a tgd that
    cannot be evaluated (a variable occurring only under uninvertible
    terms).

    [executor] runs the independent round-one applications of a
    multi-tgd stratum (pairwise distinct targets reading only lower
    strata); it defaults to sequential execution, and e.g. a domain
    pool's [run_all] can be supplied to evaluate them in parallel.  All
    persistent indexes a stratum needs are built before the executor is
    invoked, so tasks only read shared relations and write their own
    target.

    [columnar] (default [true]) routes kernel-able tgds — all-variable
    selections/projections, two-atom equi-joins, dimension-keyed
    aggregations — through vectorized kernels over dictionary-encoded
    column batches, and installs Σst source copies as shared batches
    instead of row-by-row.  The solution, the result, and every [stats]
    counter are identical to the row path's (the kernels replay its
    iteration order, counting, and error rules); only wall-clock time
    and index telemetry differ.  [~columnar:false] is the row-evaluator
    oracle; the row evaluator also runs every tgd the kernels do not
    handle.

    Sharded execution sits above this function: see
    [Shard.Driver.run]. *)

val run_naive :
  ?check_egds:bool ->
  Mappings.Mapping.t ->
  Instance.t ->
  (Instance.t * stats, string) result
(** Textbook naive evaluation, kept as the test oracle and benchmark
    baseline: every round clears and fully re-derives each target in
    canonical (target-name) order — no ordering oracle, no persistent
    indexes, Σst copied row by row — until a round changes nothing.
    Same solution as {!run}. *)

val copy_sources :
  columnar:bool -> Mappings.Mapping.t -> Instance.t -> Instance.t
(** The Σst step every chase starts from: a fresh instance over the
    mapping's target schemas holding a copy of each source relation.
    With [columnar] a relation whose target schema equals its source
    schema is installed as the source's shared column batch; otherwise
    (and always when [columnar] is false) facts are copied row by
    row.  {!run}, {!run_naive} and the shard driver's merge all
    install sources through this function. *)

val run_stratum :
  executor:((unit -> unit) list -> unit) ->
  columnar:bool ->
  Instance.t ->
  stats ->
  Mappings.Tgd.t list ->
  (unit, string) result
(** Evaluate one stratum to fixpoint against [instance] (round one
    full, then delta rounds), exactly as {!run} does internally.
    Exposed for the shard driver's residual pass; egds are {e not}
    checked here. *)

val strata_of : Mappings.Mapping.t -> Mappings.Tgd.t list list
(** The stratification {!run} evaluates: [Stratify.strata] when the
    mapping stratifies, otherwise one big stratum in statement order. *)

val check_target_egds :
  check_egds:bool ->
  Mappings.Mapping.t ->
  Instance.t ->
  stats ->
  string list ->
  (unit, string) result
(** Run the mapping's functionality egds for the named relations (the
    post-stratum check {!run} performs); [Ok] when [check_egds] is
    false.  Exposed for the shard driver's post-merge checks. *)

val sequential_executor : (unit -> unit) list -> unit
(** The default [executor]: run tasks in order on the calling domain. *)

type fact_delta = { added : Instance.fact list; removed : Instance.fact list }
(** A change to one relation's fact set.  A revision of a key is its
    old fact in [removed] and its new fact in [added]. *)

type incr_stats = {
  mutable input_facts : int;  (** net input delta facts applied *)
  mutable strata_total : int;
  mutable strata_skipped : int;
      (** strata no delta reached — not evaluated at all *)
  mutable strata_delta : int;
      (** insert-only tuple-level strata run via seeded semi-naive
          delta rounds *)
  mutable strata_rederived : int;
      (** strata rebuilt DRed-style (deletions, or aggregation /
          blackbox / outer tgds) *)
  mutable facts_rederived : int;
      (** facts (re)derived during propagation — compare with the
          solution's total fact count for the work saved *)
}

val empty_incr_stats : unit -> incr_stats

type incr_state
(** Per-mapping state of the group-scoped aggregation path: for every
    aggregation tgd, the multiset of measures currently contributing
    to each group.  Opaque and mutable; create one per cached solution
    and pass it to every {!incremental} call repairing that solution —
    it must be discarded together with the solution instance. *)

val create_incr_state : unit -> incr_state

val incremental :
  ?check_egds:bool ->
  ?executor:((unit -> unit) list -> unit) ->
  ?state:incr_state ->
  Mappings.Mapping.t ->
  solution:Instance.t ->
  deltas:(string * fact_delta) list ->
  (stats * incr_stats, string) result
(** Incrementally repair a previous full solution after source-fact
    changes, in place.  [solution] is the instance a prior {!run} of
    the same mapping produced (it contains both the Σst source copies
    and every derived relation, plus their persistent indexes);
    [deltas] are the not-yet-applied changes to source relations.

    The deltas are first applied to [solution] (set semantics: only
    genuinely new/removed facts propagate), then the strata are
    re-evaluated in stratification order: a stratum no delta reaches is
    skipped outright; an insert-only tuple-level tgd runs seeded
    semi-naive delta rounds against the persistent indexes; an
    aggregation tgd, when [state] is supplied, re-aggregates only the
    groups its source delta falls in (see {!incr_state}); any other
    touched tgd (tuple-level deletions, blackbox, outer combine, or
    aggregation without [state]) is rederived DRed-style — its touched
    targets are over-deleted and re-run from their updated sources,
    and the old-vs-new diff becomes the (compact) delta for the strata
    above.  Functionality egds are re-checked on every touched target.

    On [Error] the solution may be partially repaired; callers keeping
    the instance (and [state]) across batches must discard both.

    On success the repaired [solution] equals what a from-scratch
    {!run} on the updated sources would produce. *)

val apply_tgd : Instance.t -> Mappings.Tgd.t -> stats -> (unit, string) result
(** Apply one tgd exhaustively against the instance, with the naive
    per-application caches (exposed for unit tests). *)

val check_egd : Instance.t -> Mappings.Egd.t -> stats -> (unit, string) result
