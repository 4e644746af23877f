open Matrix

(** Data frames: the matrix-oriented structure of the R/Matlab targets
    (paper, Section 5.2).  Column-oriented, equal-length named columns. *)

type t

val create : (string * Value.t array) list -> t
(** @raise Invalid_argument on duplicate names or ragged columns. *)

val columns : t -> string list
val length : t -> int  (** number of rows *)

val column : t -> string -> Value.t array
(** @raise Invalid_argument on unknown column. *)

val has_column : t -> string -> bool

val of_cube : Cube.t -> t
(** Dimension columns then the measure column, rows in sorted key
    order. *)

val to_cube : Schema.t -> t -> Cube.t
(** Columns are matched to the schema by name.
    @raise Invalid_argument on missing columns;
    @raise Cube.Functionality_violation on conflicting rows.
    Rows with a [Null] measure are dropped. *)

val select : t -> (string * string) list -> t
(** [select f [(src, dst); ...]] keeps columns [src] (in the given
    order) renamed to [dst]. *)

val add_column : t -> string -> Value.t array -> t
(** Functional update; replaces an existing column of the same name. *)

val filter_rows : t -> (int -> bool) -> t
val sort_rows : t -> t
(** Lexicographic by row (column order); deterministic basis for
    order-sensitive aggregates. *)
