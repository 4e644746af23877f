open Matrix

(* The script is written into one buffer, statement by statement. *)

let add = Buffer.add_string

let add_list buf sep f = function
  | [] -> ()
  | x :: rest ->
      f x;
      List.iter
        (fun x ->
          add buf sep;
          f x)
        rest

(* A string literal backslash-escapes its quotes and backslashes. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_lit buf = function
  | Value.String s -> add_quoted buf s
  | Value.Date d ->
      add buf "as.Date(";
      add_quoted buf (Calendar.Date.to_string d);
      Buffer.add_char buf ')'
  | Value.Period p -> add_quoted buf (Calendar.Period.to_string p)
  | Value.Null -> add buf "NA"
  | (Value.Bool _ | Value.Int _ | Value.Float _) as v -> add buf (Value.to_string v)

let prec = function
  | Frame_ops.Bin (op, _, _) -> Ops.Binop.precedence op
  | Frame_ops.Neg _ -> 4
  | Frame_ops.Shift_val _ -> 1
  | Frame_ops.Col _ | Frame_ops.Lit _ | Frame_ops.Scalar _ | Frame_ops.Dim _
  | Frame_ops.Coalesce_col _ ->
      10

(* An expression over [frame]'s columns; an operand binding looser than
   [ctx] gets its parentheses here. *)
let rec add_expr buf frame ctx e =
  let paren = prec e < ctx in
  if paren then Buffer.add_char buf '(';
  (match e with
  | Frame_ops.Col c ->
      add buf frame;
      add buf "[\"";
      add buf c;
      add buf "\"]"
  | Frame_ops.Lit v -> add_lit buf v
  | Frame_ops.Bin (op, a, b) ->
      let p = Ops.Binop.precedence op in
      add_expr buf frame p a;
      Buffer.add_char buf ' ';
      add buf (Ops.Binop.to_string op);
      Buffer.add_char buf ' ';
      add_expr buf frame (p + 1) b
  | Frame_ops.Neg a ->
      Buffer.add_char buf '-';
      add_expr buf frame 4 a
  | Frame_ops.Scalar (fn, params, a) ->
      add buf fn;
      Buffer.add_char buf '(';
      add_expr buf frame 0 a;
      List.iter (Printf.bprintf buf ", %g") params;
      Buffer.add_char buf ')'
  | Frame_ops.Dim (fn, a) ->
      add buf fn;
      Buffer.add_char buf '(';
      add_expr buf frame 0 a;
      Buffer.add_char buf ')'
  | Frame_ops.Shift_val (a, k) ->
      add_expr buf frame 2 a;
      add buf (if k >= 0 then " + " else " - ");
      add buf (string_of_int (abs k))
  | Frame_ops.Coalesce_col (a, b) ->
      add buf "dplyr::coalesce(";
      add_expr buf frame 0 a;
      add buf ", ";
      add_expr buf frame 0 b;
      Buffer.add_char buf ')');
  if paren then Buffer.add_char buf ')'

let add_names buf xs =
  add buf "c(";
  add_list buf ", "
    (fun x ->
      Buffer.add_char buf '"';
      add buf x;
      Buffer.add_char buf '"')
    xs;
  Buffer.add_char buf ')'

(* [dst <- ], the start of an assignment line. *)
let assign buf dst =
  add buf dst;
  add buf " <- "

(* The paper's R fragment for seasonal decomposition: one of the
   components of [stl]. *)
let add_stl buf dst src component =
  add buf dst;
  add buf "C <- stl(";
  add buf src;
  add buf ", \"periodic\")\n";
  assign buf dst;
  add buf dst;
  add buf "C$time.series[ , \"";
  add buf component;
  add buf "\"]"

let add_merge buf dst left right by options =
  assign buf dst;
  add buf "merge(";
  add buf left;
  add buf ", ";
  add buf right;
  add buf ", by=";
  add_names buf by;
  add buf options;
  Buffer.add_char buf ')'

let add_stmt buf = function
  | Script.Copy { dst; src } ->
      assign buf dst;
      add buf src
  | Script.Filter_rows { dst; src; conditions } ->
      assign buf dst;
      add buf src;
      Buffer.add_char buf '[';
      add_list buf " & "
        (fun (col, v) ->
          add buf src;
          Buffer.add_char buf '$';
          add buf col;
          add buf " == ";
          add_lit buf v)
        conditions;
      add buf ", ]"
  | Script.Merge { dst; left; right; by } -> add_merge buf dst left right by ""
  | Script.Merge_outer { dst; left; right; by } ->
      add_merge buf dst left right by ", all=TRUE"
  | Script.Assign_col { frame; col; expr } ->
      add buf frame;
      Buffer.add_char buf '$';
      add buf col;
      add buf " <- ";
      add_expr buf frame 0 expr
  | Script.Select_cols { dst; src; cols } ->
      assign buf dst;
      add buf "setNames(";
      add buf src;
      Buffer.add_char buf '[';
      add_names buf (List.map fst cols);
      add buf "], ";
      add_names buf (List.map snd cols);
      Buffer.add_char buf ')'
  | Script.Group_agg { dst; src; by; aggr; measure } ->
      assign buf dst;
      add buf "aggregate(x = ";
      add_expr buf src 0 measure;
      add buf ", by = list(";
      add_list buf ", "
        (fun (name, e) ->
          add buf name;
          add buf " = ";
          add_expr buf src 0 e)
        by;
      add buf "), FUN = ";
      add buf
        (match aggr with
        | Stats.Aggregate.Avg -> "mean"
        | Stats.Aggregate.Stddev -> "sd"
        | other -> Stats.Aggregate.to_string other);
      Buffer.add_char buf ')'
  | Script.Apply_fn { dst; src; fn; params } -> (
      match String.lowercase_ascii fn with
      | "stl_t" -> add_stl buf dst src "trend"
      | "stl_s" -> add_stl buf dst src "seasonal"
      | "stl_r" -> add_stl buf dst src "remainder"
      | _ ->
          assign buf dst;
          add buf fn;
          Buffer.add_char buf '(';
          add buf src;
          List.iter (Printf.bprintf buf ", %g") params;
          Buffer.add_char buf ')')
  | Script.Const_frame { dst; cols; rows } ->
      assign buf dst;
      add buf "data.frame(";
      List.iteri
        (fun ci name ->
          if ci > 0 then add buf ", ";
          add buf name;
          add buf " = c(";
          add_list buf ", " (fun row -> add_lit buf (List.nth row ci)) rows;
          Buffer.add_char buf ')')
        cols;
      Buffer.add_char buf ')'

let script_to_string script =
  let buf = Buffer.create 4096 in
  List.iter
    (fun stmt ->
      add_stmt buf stmt;
      Buffer.add_char buf '\n')
    script;
  if script = [] then Buffer.add_char buf '\n';
  Buffer.contents buf
