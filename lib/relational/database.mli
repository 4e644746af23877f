open Matrix

(** A named collection of tables — the DBMS target's storage. *)

type t

val create : unit -> t
val create_table : t -> name:string -> columns:string list -> Table.t
(** Creates (or replaces) an empty table. *)

val find : t -> string -> Table.t option

val load_cube : ?schema:Schema.t -> t -> Cube.t -> unit
(** Adds the cube as a table ({!Table.of_cube}), replacing any table
    of the same name. *)

val to_registry : t -> schemas:Schema.t list -> elementary:string list -> Registry.t
(** Reads the tables named by [schemas] back into cubes (applying the
    functionality check). *)
