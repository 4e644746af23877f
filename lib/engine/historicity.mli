open Matrix

(** Historicity: the time-dependence of cubes (paper, Section 6).

    Every (re)computation stores a new version of each cube with its
    validity start date; reads can be "as of" any date, which is how a
    statistical production system answers "what did GDP look like before
    last month's revision?". *)

type t

val create : unit -> t

val store : t -> valid_from:Calendar.Date.t -> Cube.t -> unit
(** Keeps the cube itself: the engine never writes a cube it has
    installed, so a version costs nothing beyond the cube.  Storing
    twice with the same date replaces that version. *)

val as_of : t -> Calendar.Date.t -> string -> Cube.t option
(** The version whose validity start is the latest one <= the date. *)

val versions : t -> string -> (Calendar.Date.t * Cube.t) list
(** Oldest first. *)

val version_count : t -> string -> int
