(** Time-series view of one-dimensional temporal cubes.

    The paper treats time series as cubes with a single time dimension;
    black-box operators (seasonal decomposition, moving averages) act on
    the chronologically sorted vector of measures.  This module converts
    between the two representations. *)

type t = private {
  schema : Schema.t;
  points : (Calendar.Period.t * float) array;  (** sorted by period *)
}

val of_cube : Cube.t -> t
(** @raise Invalid_argument if the cube is not a time series (one
    temporal dimension, numeric measures). Date keys are converted to
    day periods. *)

val to_cube : t -> Cube.t
val length : t -> int
val periods : t -> Calendar.Period.t array
val values : t -> float array
val frequency : t -> Calendar.frequency option
(** [None] on an empty series. *)

val is_contiguous : t -> bool
(** Consecutive points are consecutive periods — what seasonal
    decomposition requires. *)

val with_values : t -> float array -> t
val make : Schema.t -> (Calendar.Period.t * float) list -> t
val pp : Format.formatter -> t -> unit
