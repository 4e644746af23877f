(** Directory-based persistence for cube registries.

    The paper's engines "share the data they act on" through a storage
    system; this is the simplest durable form of it: one CSV per cube
    plus a manifest recording schemas and the elementary/derived split,
    so a registry round-trips losslessly. *)

val save : dir:string -> Registry.t -> (unit, string) result
(** Creates [dir] if needed; writes [manifest] and one [<CUBE>.csv]
    per cube, replacing existing files.  Rows are written in the
    cube's iteration order, which is unspecified: keys are unique, so
    no order is needed to read them back. *)

val load : dir:string -> (Registry.t, string) result
(** Reads every cube the manifest lists with [Csv.cube_of_string]:
    rows in any order, each cell parsed by its column's domain, so a
    string code such as ["040"] or ["2020Q1"] reloads as the string it
    was.  A key repeated with another measure fails the load. *)

val registry_schemas_of_manifest :
  string -> ((Schema.t * Registry.kind) list, string) result
