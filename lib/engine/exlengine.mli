open Matrix

(** EXLEngine: the metadata-driven engine of Section 6, tying together
    the determination engine, the translation engine (with its offline
    cache), the dispatcher and the versioned cube store. *)

type config = {
  targets : Target.t list;
  policy : Dispatcher.assignment_policy;
  record_history : bool;
      (** Store a dated version of every recomputed cube. *)
  parallel_dispatch : bool;
      (** Run independent per-target subgraphs on the process-wide
          {!Pool.shared} domain pool. *)
  retry : Dispatcher.retry_policy;
      (** Retry/backoff/timeout policy for dispatch steps. *)
  faults : Faults.plan option;
      (** Deterministic fault injection for drills and tests;
          [None] (production) injects nothing. *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val register_program : t -> name:string -> string -> (unit, string) result
(** Register EXL source text; its cubes join the global DAG. *)

val load_elementary : t -> Cube.t -> (unit, string) result
(** Load (or replace) elementary data, its keys validated against the
    declared dimension domains and its measures against the measure
    domain, and mark the cube as changed.  On [Error] the store and
    {!changed} are untouched. *)

val changed : t -> string list
(** Cubes marked dirty since the last recomputation. *)

val recompute :
  ?as_of:Calendar.Date.t -> t -> (Dispatcher.report, string) result
(** Determination → partition → (cached) translation → dispatch; clears
    the dirty set.  [as_of] stamps the history versions (defaults to
    2026-01-01).  A degraded run (some cubes quarantined or skipped
    after retries and fallback) still returns [Ok]; only the
    successfully recomputed cubes enter the store and history — check
    {!Dispatcher.degraded} on the report. *)

val recompute_all :
  ?as_of:Calendar.Date.t -> t -> (Dispatcher.report, string) result
(** Recompute every derived cube regardless of the dirty set. *)

type update_report = {
  updated : string list;
      (** Elementary cubes with a net change after batch compaction
          (sorted). *)
  recomputed : string list;
      (** Derived cubes invalidated and recomputed — the dirty set of
          {!Determination.dirty_set}, in topological order. *)
  facts_changed : int;
      (** Net elementary facts added plus removed by the batch. *)
  facts_rederived : int;
      (** Facts (re)derived while propagating the change. *)
  total_facts : int;  (** Facts in the full solution, for comparison. *)
  cache_hit : bool;
      (** Whether the propagation ran incrementally against the cached
          solution ([true]) or had to rebuild it from scratch. *)
  strata_skipped : int;  (** Chase strata no delta reached. *)
  strata_rederived : int;  (** Strata rebuilt DRed-style. *)
}

val warm : t -> (unit, string) result
(** Eagerly build the incremental solution cache (one full semi-naive
    chase over the current store), so the next {!apply_updates} batch
    propagates incrementally instead of rebuilding.  A no-op when the
    cache is already warm. *)

val validate_updates : t -> Update.t list -> (unit, string) result
(** The validation pass of {!apply_updates} alone (unknown cube,
    derived cube, key or measure out of domain), without touching the
    store.  The server runs it per client batch before coalescing, so
    one malformed batch gets its 400 instead of poisoning the merged
    commit.  Read-only: safe to call concurrently with reads. *)

val apply_updates :
  ?as_of:Calendar.Date.t -> t -> Update.t list -> (update_report, string) result
(** Apply a batch of elementary-cube updates and incrementally
    recompute exactly the affected derived cubes.

    The whole batch is validated first (unknown cube, derived cube,
    key/measure domain mismatch ⇒ [Error], store untouched), then
    applied to an O(1) {!Matrix.Cube.copy} of each elementary cube it
    names (a fresh cube for a cube's first data), which replaces that
    cube in the store, and compacted to net per-key fact deltas
    (updates that cancel out propagate nothing).  The engine never
    writes a cube it has installed, so a cube read from {!cube},
    {!store} or the history before the batch keeps its facts.  The dirty derived set
    comes from {!Determination.dirty_set}; propagation seeds
    {!Exchange.Chase.incremental} with the fact deltas against the
    cached solution of the previous batch, or falls back to one full
    semi-naive chase when no cached solution exists (first batch, or
    after {!load_elementary} / {!register_program} / {!load_store}
    invalidated it).  Each affected cube is written back as an O(1)
    {!Matrix.Cube.copy} of its previous store cube with the chase's net
    change applied, so a write-back costs the change, or rebuilt whole
    when the dispatcher or {!load_store} wrote the store cube since.
    Affected cubes get a new dated version
    in the history; unaffected cubes keep theirs, so {!cube_as_of}
    still answers for both.  An empty batch is a no-op.

    When propagation fails (the chase returns [Error], e.g. a revision
    leaves a series too short for a table function), the batch is
    undone before the [Error] is returned: the store gets back the very
    cubes the batch replaced and loses any cube it created, derived
    cubes and history are untouched, and any cached solution is
    dropped, so the next batch rebuilds it from the restored store. *)

val save_store : t -> dir:string -> (unit, string) result
(** Persist the central cube store (elementary and derived) to a
    directory via {!Matrix.Store}. *)

val load_store : t -> dir:string -> (unit, string) result
(** Load previously saved cubes into the store.  Elementary cubes are
    validated against the registered programs and marked changed (so
    the next [recompute] refreshes anything stale); derived cubes are
    restored as-is. *)

val cube : t -> string -> Cube.t option
val cube_as_of : t -> Calendar.Date.t -> string -> Cube.t option
val store : t -> Registry.t
val determination : t -> Determination.t
val translation_cache : t -> Translation.t
val history : t -> Historicity.t
