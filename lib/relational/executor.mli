open Matrix

(** Execution of generated SQL against the in-memory database.

    The substitution for the paper's external DBMS target: the SQL our
    generator emits is not just text — the same AST is compiled to a
    physical {!Plan} and executed, so tgd → SQL translation is testable
    end to end. *)

type schema_lookup = string -> Schema.t option
(** Resolves a table name to its cube schema (needed for temporal
    domain information by tabular functions); usually
    [Mappings.Mapping.target_schema m]. *)

val plan_of_select :
  schema_lookup -> Sql_ast.select -> (Plan.t, string) result

val rows_of_select :
  Database.t -> schema_lookup -> Sql_ast.select -> (Value.t array list, string) result

val run_statements :
  Database.t -> schema_lookup -> Sql_ast.statement list -> (int, string) result
(** Runs a mixed script: CREATE VIEW registers a lazily evaluated
    select (scans of the view re-run it); INSERT materializes. *)

val run_mapping :
  ?views:[ `None | `Temporaries ] ->
  Database.t ->
  Mappings.Mapping.t ->
  (int, string) result
(** Generate the SQL script from the mapping and execute it; with
    [`Temporaries], auxiliary cubes become views and are never
    materialized. *)
