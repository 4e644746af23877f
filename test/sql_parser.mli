(** Parser for the generated SQL dialect, kept as a test oracle.

    Covers exactly what {!Relational.Sql_print} emits — INSERT ...
    SELECT with comma joins and WHERE equalities, GROUP BY, tabular
    functions, FULL OUTER JOIN, COALESCE, CREATE VIEW — so every
    generated script round-trips ([parse (print s) = s],
    property-tested): SQL artifacts stored as text in the metadata
    catalog can be reloaded for execution. *)

open Relational

val parse_script : string -> (Sql_ast.statement list, string) result
(** Parses a [;]-separated script. *)

val parse_statement : string -> (Sql_ast.statement, string) result
val parse_expr : string -> (Sql_ast.expr, string) result
