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
      (** Run independent per-target subgraphs on the domain pool. *)
  pool_size : int option;
      (** Worker-domain count for parallel dispatch; [None] uses the
          process-wide {!Pool.shared} sized from
          [Domain.recommended_domain_count]. *)
  retry : Dispatcher.retry_policy;
      (** Retry/backoff/timeout policy for dispatch steps. *)
  faults : Faults.plan option;
      (** Deterministic fault injection for drills and tests;
          [None] (production) injects nothing. *)
  optimize : bool;
      (** Run the exl-opt containment pass ({!Analysis.Optimize}) on
          generated mappings before chasing them.  On by default; the
          optimized mapping is what gets chased, cached, and repaired
          incrementally. *)
  shards : int;
      (** Partition full chases across this many shards
          ({!Shard.Driver.run}; the shard key is chosen per mapping),
          running the per-shard chases on the domain pool with work
          stealing.  [1] (the default) = unsharded; [> 1] also brings
          the pool up even without [parallel_dispatch].  Solutions are
          identical to the unsharded run's. *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val register_program : t -> name:string -> string -> (unit, string) result
(** Register EXL source text; its cubes join the global DAG. *)

val load_elementary : t -> Cube.t -> (unit, string) result
(** Load (or replace) elementary data, validated against the declared
    schema, and mark the cube as changed. *)

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
    applied to the store and compacted to net per-key fact deltas
    (updates that cancel out propagate nothing).  The dirty derived set
    comes from {!Determination.dirty_set}; propagation seeds
    {!Exchange.Chase.incremental} with the fact deltas against the
    cached solution of the previous batch, or falls back to one full
    semi-naive chase when no cached solution exists (first batch, or
    after {!load_elementary} / {!register_program} / {!load_store}
    invalidated it).  Affected cubes get a new dated version in the
    history; unaffected cubes keep theirs, so {!cube_as_of} still
    answers for both.  An empty batch is a no-op. *)

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
