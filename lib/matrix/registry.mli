(** Named cube store with the elementary/derived partition.

    The paper partitions cube identifiers into {e elementary} (base data
    fed to the system) and {e derived} (defined by statements) — the
    base-table/view split.  A registry is the "storage system" cubes are
    read from and written back to by every target engine. *)

type kind = Elementary | Derived

val kind_to_string : kind -> string

type t

val create : unit -> t
val add : t -> kind -> Cube.t -> unit
(** Registers (or replaces) a cube under its schema name. *)

val declare : t -> kind -> Schema.t -> unit
(** Registers an empty cube for the schema. *)

val find : t -> string -> Cube.t option
val find_exn : t -> string -> Cube.t
val kind_of : t -> string -> kind option
val remove : t -> string -> unit
val names : t -> string list  (** Sorted. *)

val elementary_names : t -> string list
val derived_names : t -> string list
val copy : t -> t
(** Deep copy: cubes are copied too. *)

val of_sources : t -> Schema.t list -> t
(** A fresh registry of elementary cubes, one per schema: the cube of
    that name in [t] itself when its schema is that one ({!Schema.equal}),
    else copied under the schema ({!Cube.with_schema}), or an empty cube
    when [t] has none.  This is how the interpreter and the chase,
    vector and ETL targets read their source relations: none of them
    writes a source cube, so they share its version, and the view that
    version memoizes, with every other reader.
    @raise Invalid_argument when a cube's arity differs from its
    schema's. *)

val equal_data : ?eps:float -> t -> t -> bool
(** Same cube names, kinds ignored, with [Cube.equal_data] contents. *)

val diff : ?eps:float -> names:string list -> t -> t -> string list
(** [diff ~names expected got]: one line per named cube that is missing
    from [got] ([missing cube N]), only in [got] ([unexpected cube N])
    or holds other data ([cube N differs: ...], {!Cube.diff_data});
    empty when every named cube agrees.  A name in neither registry
    agrees. *)
