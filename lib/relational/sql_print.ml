open Matrix

(* Every printer writes into a buffer its caller owns; the exported
   [*_to_string] functions each create one. *)

let add_ident buf s = String.iter (fun c -> Buffer.add_char buf (Char.uppercase_ascii c)) s

let add_list buf sep add = function
  | [] -> ()
  | x :: rest ->
      add x;
      List.iter
        (fun x ->
          Buffer.add_string buf sep;
          add x)
        rest

(* A string literal doubles each quote inside it. *)
let add_quoted buf s =
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_char buf '\'';
      Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\''

let add_lit buf = function
  | Value.String s -> add_quoted buf s
  | Value.Date d ->
      Buffer.add_string buf "DATE ";
      add_quoted buf (Calendar.Date.to_string d)
  | Value.Period p ->
      Buffer.add_string buf "PERIOD ";
      add_quoted buf (Calendar.Period.to_string p)
  | Value.Null -> Buffer.add_string buf "NULL"
  | (Value.Bool _ | Value.Int _ | Value.Float _) as v ->
      Buffer.add_string buf (Value.to_string v)

let add_params buf params = add_list buf ", " (Printf.bprintf buf "%g") params

let prec = function
  | Sql_ast.Binop (op, _, _) -> Ops.Binop.precedence op
  | Sql_ast.Neg _ -> 4
  | Sql_ast.Period_add _ -> 1
  | Sql_ast.Col _ | Sql_ast.Lit _ | Sql_ast.Scalar_call _ | Sql_ast.Dim_call _
  | Sql_ast.Agg_call _ | Sql_ast.Coalesce _ ->
      10

(* An operand binding looser than [ctx] gets its parentheses here. *)
let rec add_expr buf ctx e =
  let paren = prec e < ctx in
  if paren then Buffer.add_char buf '(';
  (match e with
  | Sql_ast.Col { alias; column } ->
      if alias <> "" then begin
        Buffer.add_string buf alias;
        Buffer.add_char buf '.'
      end;
      add_ident buf column
  | Sql_ast.Lit v -> add_lit buf v
  | Sql_ast.Binop (op, a, b) ->
      let p = Ops.Binop.precedence op in
      let lc, rc =
        if Ops.Binop.is_right_assoc op then (p + 1, p) else (p, p + 1)
      in
      add_expr buf lc a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Ops.Binop.to_string op);
      Buffer.add_char buf ' ';
      add_expr buf rc b
  | Sql_ast.Neg a ->
      Buffer.add_char buf '-';
      add_expr buf 4 a
  | Sql_ast.Scalar_call (fn, [], a) | Sql_ast.Dim_call (fn, a) -> add_call buf fn a
  | Sql_ast.Scalar_call (fn, params, a) ->
      add_ident buf fn;
      Buffer.add_char buf '(';
      add_params buf params;
      Buffer.add_string buf ", ";
      add_expr buf 0 a;
      Buffer.add_char buf ')'
  | Sql_ast.Period_add (a, k) ->
      add_expr buf 2 a;
      Buffer.add_string buf (if k >= 0 then " + " else " - ");
      Buffer.add_string buf (string_of_int (abs k))
  | Sql_ast.Agg_call (aggr, a) -> add_call buf (Stats.Aggregate.to_string aggr) a
  | Sql_ast.Coalesce (a, b) ->
      Buffer.add_string buf "COALESCE(";
      add_expr buf 0 a;
      Buffer.add_string buf ", ";
      add_expr buf 0 b;
      Buffer.add_char buf ')');
  if paren then Buffer.add_char buf ')'

and add_call buf fn a =
  add_ident buf fn;
  Buffer.add_char buf '(';
  add_expr buf 0 a;
  Buffer.add_char buf ')'

let to_string add x =
  let buf = Buffer.create 256 in
  add buf x;
  Buffer.contents buf

let expr_to_string e = to_string (fun buf -> add_expr buf 0) e

(* Whether the buffer, from [start] on, reads [ident name]. *)
let reads_ident buf start name =
  let n = String.length name in
  let rec same i =
    i = n || (Buffer.nth buf (start + i) = Char.uppercase_ascii name.[i] && same (i + 1))
  in
  Buffer.length buf - start = n && same 0

let add_select buf (s : Sql_ast.select) =
  Buffer.add_string buf "SELECT ";
  add_list buf ", "
    (fun (e, name) ->
      let start = Buffer.length buf in
      add_expr buf 0 e;
      if not (reads_ident buf start name) then begin
        Buffer.add_string buf " AS ";
        add_ident buf name
      end)
    s.Sql_ast.projections;
  (match s.Sql_ast.from with
  | Sql_ast.Tables [] -> ()
  | Sql_ast.Tables tables ->
      Buffer.add_string buf "\nFROM ";
      add_list buf ", "
        (fun (t, a) ->
          add_ident buf t;
          if t <> a then begin
            Buffer.add_char buf ' ';
            Buffer.add_string buf a
          end)
        tables
  | Sql_ast.Full_outer_join { left = lt, la; right = rt, ra; keys } ->
      Buffer.add_string buf "\nFROM ";
      add_ident buf lt;
      Buffer.add_char buf ' ';
      Buffer.add_string buf la;
      Buffer.add_string buf " FULL OUTER JOIN ";
      add_ident buf rt;
      Buffer.add_char buf ' ';
      Buffer.add_string buf ra;
      Buffer.add_string buf " ON ";
      add_list buf " AND "
        (fun k ->
          Buffer.add_string buf la;
          Buffer.add_char buf '.';
          add_ident buf k;
          Buffer.add_string buf " = ";
          Buffer.add_string buf ra;
          Buffer.add_char buf '.';
          add_ident buf k)
        keys
  | Sql_ast.From_table_fn { fn; params; table } ->
      Buffer.add_string buf "\nFROM ";
      add_ident buf fn;
      Buffer.add_char buf '(';
      add_ident buf table;
      if params <> [] then begin
        Buffer.add_string buf ", ";
        add_params buf params
      end;
      Buffer.add_char buf ')');
  if s.Sql_ast.where <> [] then begin
    Buffer.add_string buf "\nWHERE ";
    add_list buf " AND "
      (fun (a, b) ->
        add_expr buf 0 a;
        Buffer.add_string buf " = ";
        add_expr buf 0 b)
      s.Sql_ast.where
  end;
  if s.Sql_ast.group_by <> [] then begin
    Buffer.add_string buf "\nGROUP BY ";
    add_list buf ", " (add_expr buf 0) s.Sql_ast.group_by
  end

let select_to_string s = to_string add_select s

let add_statement buf statement =
  let head, name, columns, select, tail =
    match statement with
    | Sql_ast.Insert { table; columns; select } ->
        ("INSERT INTO ", table, columns, select, ")\n")
    | Sql_ast.Create_view { name; columns; select } ->
        ("CREATE VIEW ", name, columns, select, ") AS\n")
  in
  Buffer.add_string buf head;
  add_ident buf name;
  Buffer.add_char buf '(';
  add_list buf ", " (add_ident buf) columns;
  Buffer.add_string buf tail;
  add_select buf select

let insert_to_string i = to_string add_statement (Sql_ast.Insert i)

let statements_to_string statements =
  let buf = Buffer.create 4096 in
  add_list buf ";\n\n" (add_statement buf) statements;
  Buffer.add_string buf ";\n";
  Buffer.contents buf
