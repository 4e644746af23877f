(** EXL program printer.

    Produces concrete syntax that re-parses to the same AST
    ([Parser.parse (Pretty.program_to_string p)] = [p] up to positions);
    this round-trip is property-tested. *)

val number_to_string : float -> string
(** Shortest decimal form that re-parses to exactly the same float. *)

val literal_to_string : Matrix.Value.t -> string
(** A filter-condition literal in concrete syntax; strings use the EXL
    lexer's escape repertoire (backslash-escaped quote, backslash,
    [n], [t]). *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
