open Matrix

let ident s = String.uppercase_ascii s

let lit_to_string = function
  | Value.String s -> "'" ^ s ^ "'"
  | Value.Date d -> "DATE '" ^ Calendar.Date.to_string d ^ "'"
  | Value.Period p -> "PERIOD '" ^ Calendar.Period.to_string p ^ "'"
  | Value.Null -> "NULL"
  | (Value.Bool _ | Value.Int _ | Value.Float _) as v -> Value.to_string v

let prec = function
  | Sql_ast.Binop (op, _, _) -> Ops.Binop.precedence op
  | Sql_ast.Neg _ -> 4
  | Sql_ast.Period_add _ -> 1
  | Sql_ast.Col _ | Sql_ast.Lit _ | Sql_ast.Scalar_call _ | Sql_ast.Dim_call _
  | Sql_ast.Agg_call _ | Sql_ast.Coalesce _ ->
      10

let rec to_str ctx e =
  let s =
    match e with
    | Sql_ast.Col { alias; column } ->
        if alias = "" then ident column
        else Printf.sprintf "%s.%s" alias (ident column)
    | Sql_ast.Lit v -> lit_to_string v
    | Sql_ast.Binop (op, a, b) ->
        let p = Ops.Binop.precedence op in
        let lc, rc =
          if Ops.Binop.is_right_assoc op then (p + 1, p) else (p, p + 1)
        in
        Printf.sprintf "%s %s %s" (to_str lc a) (Ops.Binop.to_string op)
          (to_str rc b)
    | Sql_ast.Neg a -> "-" ^ to_str 4 a
    | Sql_ast.Scalar_call (fn, [], a) ->
        Printf.sprintf "%s(%s)" (ident fn) (to_str 0 a)
    | Sql_ast.Scalar_call (fn, params, a) ->
        Printf.sprintf "%s(%s, %s)" (ident fn)
          (String.concat ", " (List.map (Printf.sprintf "%g") params))
          (to_str 0 a)
    | Sql_ast.Dim_call (fn, a) -> Printf.sprintf "%s(%s)" (ident fn) (to_str 0 a)
    | Sql_ast.Period_add (a, k) ->
        if k >= 0 then Printf.sprintf "%s + %d" (to_str 2 a) k
        else Printf.sprintf "%s - %d" (to_str 2 a) (-k)
    | Sql_ast.Agg_call (aggr, a) ->
        Printf.sprintf "%s(%s)"
          (ident (Stats.Aggregate.to_string aggr))
          (to_str 0 a)
    | Sql_ast.Coalesce (a, b) ->
        Printf.sprintf "COALESCE(%s, %s)" (to_str 0 a) (to_str 0 b)
  in
  if prec e < ctx then "(" ^ s ^ ")" else s

let expr_to_string e = to_str 0 e

let select_to_string (s : Sql_ast.select) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "SELECT ";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (e, name) ->
            let rendered = expr_to_string e in
            if rendered = ident name then rendered
            else Printf.sprintf "%s AS %s" rendered (ident name))
          s.Sql_ast.projections));
  (match s.Sql_ast.from with
  | Sql_ast.Tables [] -> ()
  | Sql_ast.Tables tables ->
      Buffer.add_string buf "\nFROM ";
      Buffer.add_string buf
        (String.concat ", "
           (List.map
              (fun (t, a) ->
                if t = a then ident t else Printf.sprintf "%s %s" (ident t) a)
              tables))
  | Sql_ast.Full_outer_join { left = lt, la; right = rt, ra; keys } ->
      Buffer.add_string buf "\nFROM ";
      Buffer.add_string buf
        (Printf.sprintf "%s %s FULL OUTER JOIN %s %s ON %s" (ident lt) la
           (ident rt) ra
           (String.concat " AND "
              (List.map
                 (fun k ->
                   Printf.sprintf "%s.%s = %s.%s" la (ident k) ra (ident k))
                 keys)))
  | Sql_ast.From_table_fn { fn; params; table } ->
      Buffer.add_string buf "\nFROM ";
      if params = [] then
        Buffer.add_string buf (Printf.sprintf "%s(%s)" (ident fn) (ident table))
      else
        Buffer.add_string buf
          (Printf.sprintf "%s(%s, %s)" (ident fn) (ident table)
             (String.concat ", " (List.map (Printf.sprintf "%g") params))));
  if s.Sql_ast.where <> [] then begin
    Buffer.add_string buf "\nWHERE ";
    Buffer.add_string buf
      (String.concat " AND "
         (List.map
            (fun (a, b) ->
              Printf.sprintf "%s = %s" (expr_to_string a) (expr_to_string b))
            s.Sql_ast.where))
  end;
  if s.Sql_ast.group_by <> [] then begin
    Buffer.add_string buf "\nGROUP BY ";
    Buffer.add_string buf
      (String.concat ", " (List.map expr_to_string s.Sql_ast.group_by))
  end;
  Buffer.contents buf

let insert_to_string (i : Sql_ast.insert) =
  Printf.sprintf "INSERT INTO %s(%s)\n%s" (ident i.Sql_ast.table)
    (String.concat ", " (List.map ident i.Sql_ast.columns))
    (select_to_string i.Sql_ast.select)

let statement_to_string = function
  | Sql_ast.Insert i -> insert_to_string i
  | Sql_ast.Create_view { name; columns; select } ->
      Printf.sprintf "CREATE VIEW %s(%s) AS\n%s" (ident name)
        (String.concat ", " (List.map ident columns))
        (select_to_string select)

let statements_to_string statements =
  String.concat ";\n\n" (List.map statement_to_string statements) ^ ";\n"
