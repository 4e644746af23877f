(** Normalization: one operator per statement.

    Section 4.1 of the paper assumes "expressions in EXL statements
    include one operator ... we could add additional statements and
    auxiliary cubes to handle intermediate results" — its example turns
    statement (5) into (5a)-(5d).  This pass performs that rewriting:
    after it, every statement's right-hand side is {e simple} — a single
    operator applied to atoms (cube references or numbers), or a plain
    copy.  Mapping generation consumes normalized programs; the [Fuse]
    pass of the mapping layer can later recombine chains into complex
    tgds like the paper's tgd (5). *)

val is_normal : Ast.program -> bool

val program : Ast.program -> Ast.program
(** Rewrites every statement into simple ones, introducing auxiliary
    cubes named [<lhs>__<n>].  Fresh names are guaranteed not to clash
    with any identifier in the program.  Declarations are preserved.
    The output re-parses and re-checks; temporaries inherit schemas by
    inference. *)

val checked : Typecheck.checked -> (Typecheck.checked, Errors.t) result
(** [program] followed by [cse] and re-typechecking. *)

val temp_base : string -> string
(** The statement lhs an auxiliary cube was generated for:
    [temp_base "PCHNG__2" = "PCHNG"], identity on other names. *)

val is_temp : string -> bool
