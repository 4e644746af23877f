open Matrix

(** The DBMS target system, end to end: EXL program → mapping → SQL →
    executed against the in-memory engine → cubes. *)

val execute :
  ?views:[ `None | `Temporaries ] ->
  Mappings.Mapping.t ->
  Registry.t ->
  (Registry.t, string) result
(** The one SQL execution path: load the mapping's source relations
    from [registry] as tables (one pass per cube, no copy), run the
    mapping's script ({!Executor.run_mapping}), and convert back only
    the derived tables — the mapping's target relations minus its
    sources.  Executor failures are [Error]s.
    @raise Matrix.Cube.Functionality_violation when a derived table
    holds two measures for one key.
    @raise Invalid_argument when a registry cube's arity differs from
    its source schema. *)

val run_program :
  ?fused:bool ->
  ?views:[ `None | `Temporaries ] ->
  Exl.Typecheck.checked ->
  Registry.t ->
  (Registry.t, Exl.Errors.t) result
(** Translate and execute the program on the SQL engine, loading the
    elementary cubes from [registry], through {!execute}; the result
    also holds the elementary cubes, copied under their declared
    schemas as the interpreter returns them.  With [fused] (default [false])
    the mapping is fusion-simplified first, so no intermediate tables
    are materialized for normalizer temporaries; with
    [views:`Temporaries] they become CREATE VIEW instead (the paper's
    Section 6 reformulation). *)

val script_of_program :
  ?fused:bool ->
  ?views:[ `None | `Temporaries ] ->
  Exl.Typecheck.checked ->
  (string, Exl.Errors.t) result
(** The SQL text that [run_program] executes (what EXLEngine would ship
    to an external DBMS). *)
