open Matrix

(** The DBMS target system: a schema mapping → SQL, executed against
    the in-memory engine or rendered as script text. *)

val execute :
  ?views:[ `None | `Temporaries ] ->
  Mappings.Mapping.t ->
  Registry.t ->
  (Registry.t, string) result
(** The one SQL execution path: load the mapping's source relations
    from [registry] as tables (one pass per cube, no copy), run the
    mapping's script ({!Executor.run_mapping}), and convert back only
    the derived tables — the mapping's target relations minus its
    sources.  Executor failures are [Error]s, and so are a derived
    table holding two measures for one key and a registry cube whose
    arity differs from its source schema. *)

val script_of_mapping :
  ?views:[ `None | `Temporaries ] ->
  Mappings.Mapping.t ->
  (string, string) result
(** The SQL text that {!execute} runs (what EXLEngine would ship to an
    external DBMS).  With [views:`Temporaries] normalizer temporaries
    become CREATE VIEW instead of materialized tables (the paper's
    Section 6 reformulation); for fewer intermediate tables, pass the
    optimizer's mapping, whose fusions inline temporaries
    ([Analysis.Optimize.run]). *)
