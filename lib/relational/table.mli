open Matrix

(** In-memory relational tables (bag semantics).

    Unlike {!Matrix.Cube}, a table does not enforce functionality — the
    DBMS substrate stores whatever the generated SQL inserts, and cube
    conversion applies the egd check at the boundary, like a production
    system would with a unique constraint. *)

type t

val create : name:string -> columns:string list -> t
val name : t -> string
val width : t -> int
val row_count : t -> int
val insert : t -> Value.t array -> unit
(** @raise Invalid_argument on width mismatch. *)

val rows : t -> Value.t array list
(** In insertion order. *)

val rows_array : t -> Value.t array array
(** The same rows as an array (insertion order), without a copy: later
    inserts go to a fresh array, so the one returned never changes;
    callers must not mutate it.  A table loaded by {!of_cube} decodes
    its rows here, once (counted as [table.rows_decoded]). *)

val value : t -> int -> int -> Value.t
(** [value t r i]: row [r]'s value in column [i], read without decoding
    the table's rows. *)

val column_codes : t -> int -> Dict.t * int array
(** Column [i] dictionary-encoded over a per-(table, column) dict:
    [codes.(r)] is the code of row [r]'s value, equal codes iff equal
    values (including [Null], which gets a code like any other — mask
    it at the use site when null keys must not join).  Memoized until
    the next mutation.  The dictionary of a loaded table's key column
    is the cube view's: callers must not encode into it. *)

val of_cube : ?schema:Schema.t -> Cube.t -> t
(** The cube as a table named after [schema] (default: the cube's own),
    whose columns are its dimension names followed by its measure name.
    The table reads the cube's {!Cube.view} in place: rows in the
    cube's iteration order, the view's codes as its key columns'
    encodings, and no row decoded until a reader asks for whole rows.
    SQL results are unordered, and every order-sensitive operator
    (aggregation) puts its input in a canonical order itself.
    @raise Invalid_argument when [schema]'s arity differs from the
    cube's. *)

val to_cube : Schema.t -> t -> Cube.t
(** @raise Cube.Functionality_violation when rows conflict. *)
