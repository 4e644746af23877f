open Matrix

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* ----- lexer ----- *)

type token =
  | IDENT of string
  | NUMBER of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | AND
  | OR
  | ARROW
  | EQUALS
  | OP of Ops.Binop.t
  | EOF

let token_name = function
  | IDENT s -> s
  | NUMBER f -> Printf.sprintf "%g" f
  | STRING s -> Printf.sprintf "%S" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | SEMI -> ";"
  | AND -> "∧"
  | OR -> "∨"
  | ARROW -> "→"
  | EQUALS -> "="
  | OP op -> Ops.Binop.to_string op
  | EOF -> "<eof>"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let i = ref 0 in
  let emit t = out := t :: !out in
  let starts_with prefix =
    !i + String.length prefix <= n
    && String.sub src !i (String.length prefix) = prefix
  in
  while !i < n do
    if starts_with "\xe2\x88\xa7" (* ∧ *) then begin
      emit AND;
      i := !i + 3
    end
    else if starts_with "\xe2\x88\xa8" (* ∨ *) then begin
      emit OR;
      i := !i + 3
    end
    else if starts_with "\xe2\x86\x92" (* → *) then begin
      emit ARROW;
      i := !i + 3
    end
    else if starts_with "->" then begin
      emit ARROW;
      i := !i + 2
    end
    else
      match src.[!i] with
      | ' ' | '\t' | '\n' | '\r' -> incr i
      | '&' ->
          emit AND;
          incr i
      | '|' ->
          emit OR;
          incr i
      | '(' ->
          emit LPAREN;
          incr i
      | ')' ->
          emit RPAREN;
          incr i
      | ',' ->
          emit COMMA;
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
      | '"' ->
          let buf = Buffer.create 16 in
          incr i;
          let rec loop () =
            if !i >= n then fail "unterminated string literal"
            else
              match src.[!i] with
              | '"' -> incr i
              | '\\' when !i + 1 < n ->
                  Buffer.add_char buf src.[!i + 1];
                  i := !i + 2;
                  loop ()
              | c ->
                  Buffer.add_char buf c;
                  incr i;
                  loop ()
          in
          loop ();
          emit (STRING (Buffer.contents buf))
      | c when is_digit c ->
          let start = !i in
          while
            !i < n
            && (is_digit src.[!i] || src.[!i] = '.'
               || src.[!i] = 'e' || src.[!i] = 'E'
               || (src.[!i] = '-' && !i > start && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E')))
          do
            incr i
          done;
          (* "2024Q1"-style period literals: digits followed by idents *)
          if !i < n && is_ident_start src.[!i] then begin
            while !i < n && is_ident_char src.[!i] do
              incr i
            done;
            let text = String.sub src start (!i - start) in
            match Calendar.Period.of_string text with
            | Some _ -> emit (STRING text) (* re-interpreted below *)
            | None -> fail "bad literal %s" text
          end
          else
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
      | c -> fail "unexpected character %C" c
  done;
  emit EOF;
  Array.of_list (List.rev !out)

(* ----- parser ----- *)

type state = { tokens : token array; mutable pos : int }

let peek st = st.tokens.(st.pos)
let advance st = if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let expect st tok =
  if peek st = tok then advance st
  else fail "expected %s but found %s" (token_name tok) (token_name (peek st))

let ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | t -> fail "expected an identifier, found %s" (token_name t)

(* An atom argument: a term, or an aggregate application marker. *)
type arg = A_term of Term.t | A_agg of Stats.Aggregate.t * string

let const_of_string text =
  match Calendar.Period.of_string text with
  | Some p when String.contains text 'Q' || String.contains text 'M'
                || String.contains text 'W' || String.contains text 'S'
                || String.contains text '-' ->
      Term.Const (Value.Period p)
  | _ -> (
      match Calendar.Date.of_string text with
      | Some d -> Term.Const (Value.Date d)
      | None -> Term.Const (Value.String text))

let rec parse_term st min_prec =
  let lhs = parse_unary st in
  climb st lhs min_prec

and climb st lhs min_prec =
  match peek st with
  | OP op when Ops.Binop.precedence op >= min_prec ->
      advance st;
      let next =
        if Ops.Binop.is_right_assoc op then Ops.Binop.precedence op
        else Ops.Binop.precedence op + 1
      in
      let rhs = parse_term st next in
      climb st (Term.Binapp (op, lhs, rhs)) min_prec
  | _ -> lhs

and parse_unary st =
  match peek st with
  | OP Ops.Binop.Sub ->
      advance st;
      Term.Neg (parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | NUMBER f ->
      advance st;
      Term.Const (Value.Float f)
  | STRING text ->
      advance st;
      const_of_string text
  | LPAREN ->
      advance st;
      let t = parse_term st 1 in
      expect st RPAREN;
      t
  | IDENT name -> (
      advance st;
      match peek st with
      | LPAREN ->
          advance st;
          let rec args acc =
            let a = parse_term st 1 in
            if peek st = COMMA then begin
              advance st;
              args (a :: acc)
            end
            else List.rev (a :: acc)
          in
          let arguments = if peek st = RPAREN then [] else args [] in
          expect st RPAREN;
          classify_fn name arguments
      | _ -> Term.Var name)
  | t -> fail "expected a term, found %s" (token_name t)

and classify_fn name args =
  let lname = String.lowercase_ascii name in
  if lname = "coalesce" then
    match args with
    | [ a; b ] -> Term.Coalesce (a, b)
    | _ -> fail "coalesce expects two arguments"
  else if Ops.Dim_fn.exists lname then
    match args with
    | [ a ] -> Term.Dim_fn (lname, a)
    | _ -> fail "%s expects one argument" name
  else if Ops.Scalar_fn.exists lname then
    let rec split params = function
      | [ last ] -> (List.rev params, last)
      | Term.Const c :: rest when Value.to_float c <> None ->
          split (Option.get (Value.to_float c) :: params) rest
      | _ -> fail "unsupported argument shape for %s" name
    in
    match args with
    | [] -> fail "%s expects arguments" name
    | _ ->
        let params, operand = split [] args in
        Term.Scalar_fn (lname, params, operand)
  else fail "unknown function %s in a term" name

let parse_arg st =
  (* aggregate application or plain term *)
  match peek st with
  | IDENT name
    when Stats.Aggregate.of_string (String.lowercase_ascii name) <> None
         && st.pos + 1 < Array.length st.tokens
         && st.tokens.(st.pos + 1) = LPAREN -> (
      let aggr = Option.get (Stats.Aggregate.of_string (String.lowercase_ascii name)) in
      advance st;
      advance st;
      let v = ident st in
      expect st RPAREN;
      A_agg (aggr, v))
  | _ -> A_term (parse_term st 1)

let parse_atom_args st =
  expect st LPAREN;
  let rec loop acc =
    let a = parse_arg st in
    if peek st = COMMA then begin
      advance st;
      loop (a :: acc)
    end
    else List.rev (a :: acc)
  in
  let args = if peek st = RPAREN then [] else loop [] in
  expect st RPAREN;
  args

let terms_only args =
  List.map
    (function
      | A_term t -> t
      | A_agg _ -> fail "aggregate application only allowed in an rhs atom")
    args

(* decompose an outer-combine measure:
   coalesce(m1, d) OP coalesce(m2, d) *)
let decompose_outer_measure = function
  | Term.Binapp
      (op, Term.Coalesce (Term.Var _, Term.Const d1), Term.Coalesce (Term.Var _, Term.Const d2))
    when Value.equal d1 d2 -> (
      match Value.to_float d1 with
      | Some default -> Some (op, default)
      | None -> None)
  | _ -> None

let parse_tgd_inner st =
  (* empty-lhs tgd: "→ C(...)" *)
  if peek st = ARROW then begin
    advance st;
    let target = ident st in
    let args = terms_only (parse_atom_args st) in
    Tgd.Tuple_level { lhs = []; rhs = Tgd.atom target args }
  end
  else begin
    let first = ident st in
    if peek st = ARROW then begin
      (* table function: GDP → GDPT(stl_t(GDP)) — or (rare) a copy of a
         zero-dimensional cube, which generated mappings never print *)
      advance st;
      let target = ident st in
      expect st LPAREN;
      let fn = ident st in
      expect st LPAREN;
      let source = ident st in
      let params = ref [] in
      while peek st = SEMI || peek st = COMMA do
        advance st;
        match peek st with
        | NUMBER f ->
            advance st;
            params := f :: !params
        | t -> fail "expected a parameter, found %s" (token_name t)
      done;
      expect st RPAREN;
      expect st RPAREN;
      if source <> first then
        fail "table function source %s does not match lhs %s" source first;
      if not (Ops.Blackbox.exists fn) then
        fail "unknown black-box operator %s" fn;
      Tgd.Table_fn { fn = String.lowercase_ascii fn; params = List.rev !params; source; target }
    end
    else begin
      let first_atom = Tgd.atom first (terms_only (parse_atom_args st)) in
      match peek st with
      | OR ->
          advance st;
          let right_rel = ident st in
          let right = Tgd.atom right_rel (terms_only (parse_atom_args st)) in
          expect st ARROW;
          let target = ident st in
          let rhs_args = terms_only (parse_atom_args st) in
          let measure =
            match List.rev rhs_args with
            | m :: _ -> m
            | [] -> fail "outer combine needs a measure term"
          in
          (match decompose_outer_measure measure with
          | Some (op, default) ->
              Tgd.Outer_combine { left = first_atom; right; op; default; target }
          | None ->
              fail "outer-combine rhs must be coalesce(m1, d) OP coalesce(m2, d)")
      | _ ->
          let rec more_atoms acc =
            if peek st = AND then begin
              advance st;
              let rel = ident st in
              let atom = Tgd.atom rel (terms_only (parse_atom_args st)) in
              more_atoms (atom :: acc)
            end
            else List.rev acc
          in
          let lhs = more_atoms [ first_atom ] in
          expect st ARROW;
          let target = ident st in
          let rhs_args = parse_atom_args st in
          (* aggregation if the last rhs arg is an aggregate application *)
          let rec split_last acc = function
            | [ last ] -> (List.rev acc, last)
            | x :: rest -> split_last (x :: acc) rest
            | [] -> fail "empty rhs atom"
          in
          let front, last = split_last [] rhs_args in
          (match last with
          | A_agg (aggr, measure) -> (
              match lhs with
              | [ source ] ->
                  Tgd.Aggregation
                    { source; group_by = terms_only front; aggr; measure; target }
              | _ -> fail "aggregation tgds have a single lhs atom")
          | A_term _ ->
              Tgd.Tuple_level { lhs; rhs = Tgd.atom target (terms_only rhs_args) })
    end
  end

let wrap f src =
  try
    let st = { tokens = tokenize src; pos = 0 } in
    let result = f st in
    (match peek st with
    | EOF -> ()
    | t -> fail "unexpected %s after the end" (token_name t));
    Ok result
  with Parse_error msg -> Error msg

let tgd_of_string src = wrap parse_tgd_inner src

(* listing: skip comments, blank lines, numbering, egds *)
let tgds_of_string src =
  let lines = String.split_on_char '\n' src in
  let strip line =
    let line = String.trim line in
    (* drop a leading "(n)" numbering *)
    if String.length line > 0 && line.[0] = '(' then
      match String.index_opt line ')' with
      | Some close
        when String.for_all
               (fun c -> is_digit c)
               (String.sub line 1 (close - 1))
             && close > 1 ->
          String.trim (String.sub line (close + 1) (String.length line - close - 1))
      | _ -> line
    else line
  in
  let is_egd line =
    (* ... → (y1 = y2) *)
    match String.index_opt line '=' with
    | Some _ ->
        let len = String.length line in
        len > 0 && line.[len - 1] = ')'
        && (match String.rindex_opt line '(' with
           | Some o -> String.contains_from line o '='
           | None -> false)
        &&
        (* the rhs parenthesis group contains '=' directly *)
        (match String.rindex_opt line '(' with
        | Some o ->
            let inner = String.sub line (o + 1) (len - o - 2) in
            String.contains inner '='
        | None -> false)
    | None -> false
  in
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = strip line in
        if line = "" then loop acc rest
        else if String.length line >= 2 && String.sub line 0 2 = "--" then
          loop acc rest
        else if is_egd line then loop acc rest
        else
          match tgd_of_string line with
          | Ok tgd -> loop (tgd :: acc) rest
          | Error msg -> Error (Printf.sprintf "%s\nin line: %s" msg line))
  in
  loop [] lines
