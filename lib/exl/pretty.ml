(* Shortest decimal form that parses back to exactly [f].  Constant
   folding can produce floats (0.1 + 0.2) whose nearest 12-digit
   rendering is a different float; printing those with %.12g would make
   the round-trip land on the wrong value. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match exact 12 with
    | Some s -> s
    | None -> ( match exact 15 with Some s -> s | None -> Printf.sprintf "%.17g" f)

let dim_item_to_string (d : Ast.dim_item) =
  let base =
    match d.fn with
    | Some fn -> Printf.sprintf "%s(%s)" fn d.src
    | None -> d.src
  in
  match d.alias with Some a -> base ^ " as " ^ a | None -> base

(* String literals must use the EXL lexer's own escape repertoire
   (escaped quote, backslash, n, t; every other byte raw) — OCaml's %S
   also emits r, b and decimal escapes the lexer rejects. *)
let escape_string text =
  let buf = Buffer.create (String.length text + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    text;
  Buffer.add_char buf '"';
  Buffer.contents buf

let literal_to_string = function
  | Matrix.Value.String text -> escape_string text
  | Matrix.Value.Float f -> number_to_string f
  | other -> Matrix.Value.to_string other

(* Precedence-aware printing: parenthesize a child only when its
   precedence is too low for its context. *)
let rec expr_prec = function
  | Ast.Number f -> if f < 0. then 4 else 10
  | Ast.Cube_ref _ | Ast.Call _ -> 10
  | Ast.Neg _ -> 4
  | Ast.Binop (op, _, _) -> Ops.Binop.precedence op

and expr_to_string e = to_str 0 e

and to_str ctx e =
  let s =
    match e with
    | Ast.Number f -> number_to_string f
    | Ast.Cube_ref n -> n
    | Ast.Neg inner -> "-" ^ to_str 4 inner
    | Ast.Binop (op, a, b) ->
        let p = Ops.Binop.precedence op in
        let left_ctx, right_ctx =
          if Ops.Binop.is_right_assoc op then (p + 1, p) else (p, p + 1)
        in
        Printf.sprintf "%s %s %s" (to_str left_ctx a)
          (Ops.Binop.to_string op) (to_str right_ctx b)
    | Ast.Call c ->
        let args = List.map (to_str 0) c.args in
        let conds =
          List.map
            (fun (dim, literal) ->
              Printf.sprintf "%s = %s" dim (literal_to_string literal))
            c.conditions
        in
        let clauses =
          match c.group_by with
          | None -> args @ conds
          | Some items ->
              args @ conds
              @ [
                  "group by "
                  ^ String.concat ", " (List.map dim_item_to_string items);
                ]
        in
        Printf.sprintf "%s(%s)" c.fn (String.concat ", " clauses)
  in
  if expr_prec e < ctx then "(" ^ s ^ ")" else s

let stmt_to_string (s : Ast.stmt) =
  Printf.sprintf "%s := %s;" s.lhs (expr_to_string s.rhs)

let decl_to_string (d : Ast.decl) =
  let dims =
    String.concat ", "
      (List.map (fun (n, dom) -> Printf.sprintf "%s: %s" n dom) d.d_dims)
  in
  let measure =
    match d.d_measure with Some m -> ": " ^ m | None -> ""
  in
  Printf.sprintf "cube %s(%s)%s;" d.d_name dims measure

let item_to_string = function
  | Ast.Decl d -> decl_to_string d
  | Ast.Stmt s -> stmt_to_string s

let program_to_string p =
  String.concat "\n" (List.map item_to_string p) ^ "\n"
