open Matrix

(** An immutable, atomically-published view of the engine's cube store.

    The server keeps exactly one writer (the coalescing update loop)
    and any number of reader threads.  Readers never touch the engine:
    every GET resolves against the snapshot last published with
    {!Atomic.set}, so a half-applied batch is invisible — the writer
    builds the next snapshot only after {!Engine.Exlengine.apply_updates}
    committed, and swaps it in with one atomic store (swap-on-commit).

    Publishing costs O(revised keys), not O(cube).  An elementary cube
    (which the engine revises in place) is served as an immutable
    {e base} — the copy {!capture} takes — plus an {e overlay} of the
    keys revised since, each bound to its value or to its removal.  A
    commit extends the overlay with the keys its batch revised; once
    the overlay outgrows one key per eight base facts, it is folded into
    a fresh base copy, so copying stays amortized O(1) per revised key.
    Derived cubes and history versions are fresh or copy-on-store
    objects the engine never mutates again, and are shared; untouched
    entries are shared with the previous snapshot.

    A dimension filter reads a {e posting list} of the base (the base's
    facts holding the filtered value), built on the first filtered read
    of that dimension and shared by every snapshot on the same base; the
    read examines that list and the overlay, not the whole cube. *)

type status =
  | Healthy
  | Quarantined of Engine.Faults.failure_report option
      (** Failed on every capable target during the last full
          recompute; the report (when one names the cube) carries the
          structured diagnostic the 503 body serves. *)
  | Skipped of unit
      (** Not attempted because an upstream cube is quarantined. *)

type view
(** One cube's data as of one snapshot.  Immutable. *)

val cardinality : view -> int

val select :
  ?limit:int -> filters:(int * Value.t) list -> view -> (Tuple.t * Value.t) list
(** The facts whose key holds value [v] at dimension [i] for every
    [(i, v)] in [filters], sorted by key, only the first [limit] of
    them: the rows {!Cube.select} returns on the cube the view stands
    for. *)

val to_cube : view -> Cube.t
(** The cube the view stands for, to be read and not mutated: shared
    when the view has no overlay, otherwise a fresh copy. *)

type entry = {
  kind : Registry.kind;
  schema : Schema.t;
  current : view option;  (** [None] when no data exists yet *)
  versions : (Calendar.Date.t * Cube.t) list;  (** oldest first *)
  status : status;
}

type t

val seq : t -> int
(** Publication sequence number, 0 for the boot snapshot. *)

val capture :
  ?report:Engine.Dispatcher.report -> Engine.Exlengine.t -> t
(** The boot snapshot: every elementary cube copied out of the engine
    as a base, derived cubes shared, statuses derived from the
    recompute [report]'s quarantined/skipped sets. *)

val publish :
  prev:t ->
  revised:Engine.Update.t list ->
  touched:string list ->
  Engine.Exlengine.t ->
  t
(** The post-commit snapshot: entries named in [touched] are re-read
    from the engine, everything else is shared with [prev].  An
    elementary entry re-reads only the keys [revised] names for it (the
    committed batch), so [revised] must name every key the commit
    changed.  Derived currents and history versions are shared. *)

val find : t -> string -> entry option

val names : t -> string list
(** Sorted. *)

val as_of : entry -> Calendar.Date.t -> view option
(** The version whose validity start is the latest one <= the date. *)
