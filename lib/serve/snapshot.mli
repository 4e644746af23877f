open Matrix

(** An immutable, atomically-published view of the engine's cube store.

    The server keeps exactly one writer (the coalescing update loop)
    and any number of reader threads.  Readers never touch the engine:
    every GET resolves against the snapshot last published with
    {!Atomic.set}, so a half-applied batch is invisible — the writer
    builds the next snapshot only after {!Engine.Exlengine.apply_updates}
    committed, and swaps it in with one atomic store (swap-on-commit).

    Publishing costs O(1) per touched cube: the snapshot keeps the
    engine's current cube and history versions themselves, which never
    change because the engine never writes a cube it has installed;
    untouched entries are shared with the previous snapshot.  A
    filtered read of a snapshot's cube is a {!Cube.select}: it reads a
    posting list and the overlay, not the whole cube. *)

type status =
  | Healthy
  | Quarantined of Engine.Faults.failure_report option
      (** Failed on every capable target during the last full
          recompute; the report (when one names the cube) carries the
          structured diagnostic the 503 body serves. *)
  | Skipped of unit
      (** Not attempted because an upstream cube is quarantined. *)

type entry = {
  kind : Registry.kind;
  schema : Schema.t;
  current : Cube.t option;  (** [None] when no data exists yet *)
  versions : (Calendar.Date.t * Cube.t) list;  (** oldest first *)
  status : status;
}

type t

val seq : t -> int
(** Publication sequence number, 0 for the boot snapshot. *)

val capture :
  ?report:Engine.Dispatcher.report -> Engine.Exlengine.t -> t
(** The boot snapshot: every engine cube, statuses derived from the
    recompute [report]'s quarantined/skipped sets. *)

val publish : prev:t -> touched:string list -> Engine.Exlengine.t -> t
(** The post-commit snapshot: entries named in [touched] are re-read
    from the engine, everything else is shared with [prev]. *)

val find : t -> string -> entry option

val names : t -> string list
(** Sorted. *)

val as_of : entry -> Calendar.Date.t -> Cube.t option
(** The version whose validity start is the latest one <= the date. *)
