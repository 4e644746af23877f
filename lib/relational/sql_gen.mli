(** Tgd → SQL translation (paper, Section 5.1).

    Tuple-level tgds become INSERT ... SELECT with joins ("the
    conjunction of atoms in the lhs is turned into a join of the
    corresponding relations, with the equality conditions generated out
    of the repeated variables"); aggregation tgds get GROUP BY; table
    function tgds select from the tabular UDF. *)

val insert_of_tgd :
  Mappings.Mapping.t -> Mappings.Tgd.t -> (Sql_ast.insert, string) result

val statements_of_mapping :
  ?views:[ `None | `Temporaries ] ->
  Mappings.Mapping.t ->
  (Sql_ast.statement list, string) result
(** Like [script_of_mapping], but with [`Temporaries] the normalizer's
    auxiliary cubes become CREATE VIEW instead of materialized INSERTs —
    the paper's Section 6 observation that "it is not necessary that all
    the intermediate steps are stored back into the system". *)

val ddl_of_mapping : Mappings.Mapping.t -> string
(** CREATE TABLE statements for all target relations (documentation /
    external-DBMS deployment). *)
