open Matrix
open Relational

(* ----- lexer ----- *)

type token =
  | IDENT of string
  | NUMBER of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | SEMI
  | EQUALS
  | OP of Ops.Binop.t
  | EOF

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let i = ref 0 in
  let emit t = out := t :: !out in
  while !i < n do
    (match src.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' ->
        emit LPAREN;
        incr i
    | ')' ->
        emit RPAREN;
        incr i
    | ',' ->
        emit COMMA;
        incr i
    | '.' when !i + 1 < n && is_digit src.[!i + 1] = false ->
        emit DOT;
        incr i
    | ';' ->
        emit SEMI;
        incr i
    | '=' ->
        emit EQUALS;
        incr i
    | '+' ->
        emit (OP Ops.Binop.Add);
        incr i
    | '*' ->
        emit (OP Ops.Binop.Mul);
        incr i
    | '/' ->
        emit (OP Ops.Binop.Div);
        incr i
    | '^' ->
        emit (OP Ops.Binop.Pow);
        incr i
    | '-' ->
        emit (OP Ops.Binop.Sub);
        incr i
    | '\'' ->
        (* a doubled quote inside the literal stands for one quote *)
        let text = Buffer.create 16 in
        let j = ref (!i + 1) in
        while
          !j < n && (src.[!j] <> '\'' || (!j + 1 < n && src.[!j + 1] = '\''))
        do
          Buffer.add_char text src.[!j];
          j := !j + if src.[!j] = '\'' then 2 else 1
        done;
        if !j >= n then fail "unterminated string literal";
        emit (STRING (Buffer.contents text));
        i := !j + 1
    | c when is_digit c || c = '.' ->
        let start = !i in
        while
          !i < n
          && (is_digit src.[!i] || src.[!i] = '.' || src.[!i] = 'e'
             || src.[!i] = 'E'
             || ((src.[!i] = '+' || src.[!i] = '-')
                && !i > start
                && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E')))
        do
          incr i
        done;
        let text = String.sub src start (!i - start) in
        (match float_of_string_opt text with
        | Some f -> emit (NUMBER f)
        | None -> fail "bad number %s" text)
    | c when is_ident_start c ->
        let start = !i in
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        emit (IDENT (String.sub src start (!i - start)))
    | c -> fail "unexpected character %C" c)
  done;
  emit EOF;
  Array.of_list (List.rev !out)

(* ----- parser ----- *)

type state = { tokens : token array; mutable pos : int }

let peek st = st.tokens.(st.pos)

let peek2 st =
  if st.pos + 1 < Array.length st.tokens then st.tokens.(st.pos + 1) else EOF

let advance st = if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let token_name = function
  | IDENT s -> s
  | NUMBER f -> Printf.sprintf "%g" f
  | STRING s -> Printf.sprintf "'%s'" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | SEMI -> ";"
  | EQUALS -> "="
  | OP op -> Ops.Binop.to_string op
  | EOF -> "<eof>"

let expect st tok =
  if peek st = tok then advance st
  else fail "expected %s but found %s" (token_name tok) (token_name (peek st))

let ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | t -> fail "expected an identifier, found %s" (token_name t)

(* keyword check, case-insensitive *)
let is_kw st kw =
  match peek st with
  | IDENT s -> String.uppercase_ascii s = kw
  | _ -> false

let eat_kw st kw =
  if is_kw st kw then advance st
  else fail "expected %s, found %s" kw (token_name (peek st))

let eat_kws st kws = List.iter (eat_kw st) kws

(* ----- expressions ----- *)

let classify_call fn args =
  let lfn = String.lowercase_ascii fn in
  if lfn = "coalesce" then
    match args with
    | [ a; b ] -> Sql_ast.Coalesce (a, b)
    | _ -> fail "COALESCE expects two arguments"
  else
    match Stats.Aggregate.of_string lfn with
    | Some aggr -> (
        match args with
        | [ a ] -> Sql_ast.Agg_call (aggr, a)
        | _ -> fail "%s expects one argument" fn)
    | None ->
        if Option.is_some (Ops.Dim_fn.find lfn) then
          match args with
          | [ a ] -> Sql_ast.Dim_call (lfn, a)
          | _ -> fail "%s expects one argument" fn
        else
          (* scalar UDF: leading numeric literals are parameters *)
          let rec split params = function
            | [ last ] -> (List.rev params, last)
            | Sql_ast.Lit v :: rest when Value.to_float v <> None ->
                split (Option.get (Value.to_float v) :: params) rest
            | _ -> fail "unsupported argument shape for %s" fn
          in
          (match args with
          | [] -> fail "%s expects arguments" fn
          | _ ->
              let params, operand = split [] args in
              Sql_ast.Scalar_call (lfn, params, operand))

let rec parse_expr_prec st min_prec =
  let lhs = parse_unary st in
  climb st lhs min_prec

and climb st lhs min_prec =
  match peek st with
  | OP op when Ops.Binop.precedence op >= min_prec ->
      advance st;
      let next_min =
        if Ops.Binop.is_right_assoc op then Ops.Binop.precedence op
        else Ops.Binop.precedence op + 1
      in
      let rhs = parse_expr_prec st next_min in
      climb st (Sql_ast.Binop (op, lhs, rhs)) min_prec
  | _ -> lhs

and parse_unary st =
  match peek st with
  | OP Ops.Binop.Sub ->
      advance st;
      Sql_ast.Neg (parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | NUMBER f ->
      advance st;
      Sql_ast.Lit (Value.Float f)
  | STRING s ->
      advance st;
      Sql_ast.Lit (Value.String s)
  | LPAREN ->
      advance st;
      let e = parse_expr_prec st 1 in
      expect st RPAREN;
      e
  | IDENT name when String.uppercase_ascii name = "NULL" ->
      advance st;
      Sql_ast.Lit Value.Null
  | IDENT name
    when String.uppercase_ascii name = "DATE"
         && match peek2 st with STRING _ -> true | _ -> false -> (
      advance st;
      match peek st with
      | STRING s -> (
          advance st;
          match Calendar.Date.of_string s with
          | Some d -> Sql_ast.Lit (Value.Date d)
          | None -> fail "bad DATE literal '%s'" s)
      | t -> fail "DATE must be followed by a string literal, found %s"
               (token_name t))
  | IDENT name
    when String.uppercase_ascii name = "PERIOD"
         && match peek2 st with STRING _ -> true | _ -> false -> (
      advance st;
      match peek st with
      | STRING s -> (
          advance st;
          match Calendar.Period.of_string s with
          | Some p -> Sql_ast.Lit (Value.Period p)
          | None -> fail "bad PERIOD literal '%s'" s)
      | t -> fail "PERIOD must be followed by a string literal, found %s"
               (token_name t))
  | IDENT name -> (
      advance st;
      match peek st with
      | DOT ->
          advance st;
          let column = ident st in
          Sql_ast.Col { alias = name; column }
      | LPAREN ->
          advance st;
          let rec args acc =
            let a = parse_expr_prec st 1 in
            if peek st = COMMA then begin
              advance st;
              args (a :: acc)
            end
            else List.rev (a :: acc)
          in
          let arguments = if peek st = RPAREN then [] else args [] in
          expect st RPAREN;
          classify_call name arguments
      | _ -> Sql_ast.Col { alias = ""; column = name })
  | t -> fail "expected an expression, found %s" (token_name t)

(* ----- clauses ----- *)

let parse_projection st =
  let e = parse_expr_prec st 1 in
  if is_kw st "AS" then begin
    advance st;
    let name = ident st in
    (e, name)
  end
  else
    match e with
    | Sql_ast.Col { column; _ } -> (e, column)
    | _ -> fail "projection without AS must be a plain column"

let keyword_set = [ "FROM"; "WHERE"; "GROUP"; "AS"; "AND"; "ON"; "FULL" ]

let parse_from st =
  (* table [alias], ... |  table alias FULL OUTER JOIN ... | fn(table, params) *)
  let first = ident st in
  if peek st = LPAREN then begin
    (* tabular function *)
    advance st;
    let table = ident st in
    let params = ref [] in
    while peek st = COMMA do
      advance st;
      match peek st with
      | NUMBER f ->
          advance st;
          params := f :: !params
      | t -> fail "expected a numeric parameter, found %s" (token_name t)
    done;
    expect st RPAREN;
    Sql_ast.From_table_fn
      { fn = String.lowercase_ascii first; params = List.rev !params; table }
  end
  else begin
    let alias_of name =
      match peek st with
      | IDENT a when not (List.mem (String.uppercase_ascii a) keyword_set) ->
          advance st;
          a
      | _ -> name
    in
    let first_alias = alias_of first in
    if is_kw st "FULL" then begin
      eat_kws st [ "FULL"; "OUTER"; "JOIN" ];
      let right = ident st in
      let right_alias = alias_of right in
      eat_kw st "ON";
      let rec keys acc =
        let a = parse_expr_prec st 1 in
        expect st EQUALS;
        let b = parse_expr_prec st 1 in
        let key =
          match (a, b) with
          | Sql_ast.Col { column = c1; _ }, Sql_ast.Col { column = c2; _ }
            when String.uppercase_ascii c1 = String.uppercase_ascii c2 ->
              c1
          | _ -> fail "FULL OUTER JOIN conditions must equate same-named columns"
        in
        if is_kw st "AND" then begin
          advance st;
          keys (key :: acc)
        end
        else List.rev (key :: acc)
      in
      Sql_ast.Full_outer_join
        {
          left = (first, first_alias);
          right = (right, right_alias);
          keys = keys [];
        }
    end
    else begin
      let rec more acc =
        if peek st = COMMA then begin
          advance st;
          let t = ident st in
          let a = alias_of t in
          more ((t, a) :: acc)
        end
        else List.rev acc
      in
      Sql_ast.Tables (more [ (first, first_alias) ])
    end
  end

let parse_select st =
  eat_kw st "SELECT";
  let rec projections acc =
    let p = parse_projection st in
    if peek st = COMMA then begin
      advance st;
      projections (p :: acc)
    end
    else List.rev (p :: acc)
  in
  let projections = projections [] in
  let from =
    if is_kw st "FROM" then begin
      advance st;
      parse_from st
    end
    else Sql_ast.Tables []
  in
  let where =
    if is_kw st "WHERE" then begin
      advance st;
      let rec eqs acc =
        let a = parse_expr_prec st 1 in
        expect st EQUALS;
        let b = parse_expr_prec st 1 in
        if is_kw st "AND" then begin
          advance st;
          eqs ((a, b) :: acc)
        end
        else List.rev ((a, b) :: acc)
      in
      eqs []
    end
    else []
  in
  let group_by =
    if is_kw st "GROUP" then begin
      eat_kws st [ "GROUP"; "BY" ];
      let rec exprs acc =
        let e = parse_expr_prec st 1 in
        if peek st = COMMA then begin
          advance st;
          exprs (e :: acc)
        end
        else List.rev (e :: acc)
      in
      exprs []
    end
    else []
  in
  { Sql_ast.projections; from; where; group_by }

let parse_columns st =
  expect st LPAREN;
  let rec cols acc =
    let c = ident st in
    if peek st = COMMA then begin
      advance st;
      cols (c :: acc)
    end
    else List.rev (c :: acc)
  in
  let columns = cols [] in
  expect st RPAREN;
  columns

let parse_statement_inner st =
  if is_kw st "INSERT" then begin
    eat_kws st [ "INSERT"; "INTO" ];
    let table = ident st in
    let columns = parse_columns st in
    let select = parse_select st in
    Sql_ast.Insert { table; columns; select }
  end
  else if is_kw st "CREATE" then begin
    eat_kws st [ "CREATE"; "VIEW" ];
    let name = ident st in
    let columns = parse_columns st in
    eat_kw st "AS";
    let select = parse_select st in
    Sql_ast.Create_view { name; columns; select }
  end
  else fail "expected INSERT or CREATE VIEW, found %s" (token_name (peek st))

let wrap f src =
  try
    let st = { tokens = tokenize src; pos = 0 } in
    let result = f st in
    (match peek st with
    | EOF -> ()
    | t -> fail "unexpected %s after the end of the statement" (token_name t));
    Ok result
  with Parse_error msg -> Error msg

let parse_statement src =
  wrap
    (fun st ->
      let stmt = parse_statement_inner st in
      if peek st = SEMI then advance st;
      stmt)
    src

let parse_expr src = wrap (fun st -> parse_expr_prec st 1) src

let parse_script src =
  wrap
    (fun st ->
      let rec loop acc =
        if peek st = EOF then List.rev acc
        else begin
          let stmt = parse_statement_inner st in
          if peek st = SEMI then advance st;
          loop (stmt :: acc)
        end
      in
      loop [])
    src
