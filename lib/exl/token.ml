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
  | ASSIGN
  | EQUAL
  | KW_CUBE
  | KW_GROUP
  | KW_BY
  | KW_AS
  | EOF

type located = { token : t; pos : Ast.pos }

let to_string = function
  | IDENT s -> s
  | NUMBER f -> Printf.sprintf "%g" f
  | STRING s -> Printf.sprintf "%S" s
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | CARET -> "^"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | COLON -> ":"
  | SEMI -> ";"
  | ASSIGN -> ":="
  | EQUAL -> "="
  | KW_CUBE -> "cube"
  | KW_GROUP -> "group"
  | KW_BY -> "by"
  | KW_AS -> "as"
  | EOF -> "<eof>"
