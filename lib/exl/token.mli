(** Lexical tokens of EXL. *)

type t =
  | IDENT of string
  | NUMBER of float
  | STRING of string
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | CARET
  | LPAREN
  | RPAREN
  | COMMA
  | COLON
  | SEMI
  | ASSIGN  (** [:=] *)
  | EQUAL  (** [=], in filter conditions *)
  | KW_CUBE
  | KW_GROUP
  | KW_BY
  | KW_AS
  | EOF

type located = { token : t; pos : Ast.pos }

val to_string : t -> string
