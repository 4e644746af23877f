open Matrix

(** The ETL target system: a schema mapping → job of flows, run on the
    streaming engine or serialized as a Kettle catalog. *)

val execute :
  ?batch_size:int ->
  Mappings.Mapping.t ->
  Registry.t ->
  (Registry.t, string) result
(** The one ETL execution path: copy the mapping's source relations from
    [registry] into a fresh storage (under their declared schemas, empty
    when absent), run the mapping's job on it, and return the storage:
    the sources plus every relation the job wrote.  [batch_size] is the
    engine's row batch (semantics-neutral).  Job generation and engine
    failures are [Error]s, and so are flows writing two measures for
    one key and a registry cube whose arity differs from its source
    schema. *)

val kettle_catalog_of_mapping : Mappings.Mapping.t -> (string, string) result
(** The Kettle-style XML the translation engine would feed to Pentaho. *)
