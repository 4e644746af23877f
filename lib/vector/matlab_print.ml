open Matrix

exception Print_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Print_error m)) fmt

let columns_of_schema schema =
  Schema.dim_names schema @ [ schema.Schema.measure_name ]

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

(* A string literal doubles each quote inside it. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_char buf '"';
      Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_lit buf = function
  | Value.String s -> add_quoted buf s
  | Value.Date d ->
      add buf "datetime(";
      add_quoted buf (Calendar.Date.to_string d);
      Buffer.add_char buf ')'
  | Value.Period p -> add_quoted buf (Calendar.Period.to_string p)
  | Value.Null -> add buf "NaN"
  | (Value.Bool _ | Value.Int _ | Value.Float _) as v -> add buf (Value.to_string v)

let matlab_binop = function
  | Ops.Binop.Add -> "+"
  | Ops.Binop.Sub -> "-"
  | Ops.Binop.Mul -> ".*"
  | Ops.Binop.Div -> "./"
  | Ops.Binop.Pow -> ".^"

let position cols c =
  match List.find_index (fun x -> x = c) cols with
  | Some i -> i + 1
  | None -> fail "column %s not in layout [%s]" c (String.concat "; " cols)

let positions cols wanted = List.map (position cols) wanted

let add_int buf i = add buf (string_of_int i)

(* [frame(:,i)], column [i] of [frame]. *)
let add_col buf frame i =
  add buf frame;
  add buf "(:,";
  add_int buf i;
  Buffer.add_char buf ')'

let add_range buf ps =
  Buffer.add_char buf '[';
  add_list buf " " (add_int buf) ps;
  Buffer.add_char buf ']'

let prec = function
  | Frame_ops.Bin (op, _, _) -> Ops.Binop.precedence op
  | Frame_ops.Neg _ -> 4
  | Frame_ops.Shift_val _ -> 1
  | Frame_ops.Col _ | Frame_ops.Lit _ | Frame_ops.Scalar _ | Frame_ops.Dim _
  | Frame_ops.Coalesce_col _ ->
      10

(* An expression over [frame], whose columns are [cols]; an operand
   binding looser than [ctx] gets its parentheses here. *)
let rec add_expr buf frame cols ctx e =
  let paren = prec e < ctx in
  if paren then Buffer.add_char buf '(';
  (match e with
  | Frame_ops.Col c -> add_col buf frame (position cols c)
  | Frame_ops.Lit v -> add_lit buf v
  | Frame_ops.Bin (op, a, b) ->
      let p = Ops.Binop.precedence op in
      add_expr buf frame cols p a;
      Buffer.add_char buf ' ';
      add buf (matlab_binop op);
      Buffer.add_char buf ' ';
      add_expr buf frame cols (p + 1) b
  | Frame_ops.Neg a ->
      Buffer.add_char buf '-';
      add_expr buf frame cols 4 a
  | Frame_ops.Scalar (fn, params, a) ->
      add buf fn;
      Buffer.add_char buf '(';
      add_expr buf frame cols 0 a;
      List.iter (Printf.bprintf buf ", %g") params;
      Buffer.add_char buf ')'
  | Frame_ops.Dim (fn, a) ->
      add buf fn;
      Buffer.add_char buf '(';
      add_expr buf frame cols 0 a;
      Buffer.add_char buf ')'
  | Frame_ops.Shift_val (a, k) ->
      add_expr buf frame cols 2 a;
      add buf (if k >= 0 then " + " else " - ");
      add_int buf (abs k)
  | Frame_ops.Coalesce_col (a, b) ->
      add buf "fillmissing2(";
      add_expr buf frame cols 0 a;
      add buf ", ";
      add_expr buf frame cols 0 b;
      Buffer.add_char buf ')');
  if paren then Buffer.add_char buf ')'

(* [dst = ], the start of an assignment line. *)
let assign buf dst =
  add buf dst;
  add buf " = "

(* [dst = f(left, [l], right, [r]], a join on the [by] positions of
   either side, the call left open for its options. *)
let add_join buf dst f left lpos right rpos =
  assign buf dst;
  add buf f;
  Buffer.add_char buf '(';
  add buf left;
  add buf ", ";
  add_range buf lpos;
  add buf ", ";
  add buf right;
  add buf ", ";
  add_range buf rpos

let script_to_string ~schemas script =
  let buf = Buffer.create 4096 in
  let layouts : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let layout name =
    match Hashtbl.find_opt layouts name with
    | Some l -> l
    | None -> (
        match schemas name with
        | Some s -> columns_of_schema s
        | None -> fail "unknown frame %s" name)
  in
  let expr frame e = add_expr buf frame (layout frame) 0 e in
  let merge_layout left right by =
    let lcols = layout left and rcols = layout right in
    let clash c = (not (List.mem c by)) && List.mem c lcols && List.mem c rcols in
    List.map (fun c -> if clash c then c ^ "_x" else c) lcols
    @ List.filter_map
        (fun c ->
          if List.mem c by then None
          else Some (if clash c then c ^ "_y" else c))
        rcols
  in
  (* Writes [stmt]'s lines; the caller ends the last one with ";\n". *)
  let line stmt =
    match stmt with
    | Script.Copy { dst; src } ->
        Hashtbl.replace layouts dst (layout src);
        assign buf dst;
        add buf src
    | Script.Filter_rows { dst; src; conditions } ->
        let cols = layout src in
        Hashtbl.replace layouts dst cols;
        assign buf dst;
        add buf src;
        Buffer.add_char buf '(';
        add_list buf " & "
          (fun (col, v) ->
            add_col buf src (position cols col);
            add buf " == ";
            add_lit buf v)
          conditions;
        add buf ", :)"
    | Script.Merge { dst; left; right; by } ->
        let lpos = positions (layout left) by in
        let rpos = positions (layout right) by in
        Hashtbl.replace layouts dst (merge_layout left right by);
        add_join buf dst "join" left lpos right rpos;
        Buffer.add_char buf ')'
    | Script.Merge_outer { dst; left; right; by } ->
        let lpos = positions (layout left) by in
        let rpos = positions (layout right) by in
        (* outer merge keeps a single (coalesced) copy of the keys *)
        let keys_first =
          by
          @ List.filter (fun c -> not (List.mem c by)) (merge_layout left right by)
        in
        Hashtbl.replace layouts dst keys_first;
        add_join buf dst "outerjoin" left lpos right rpos;
        add buf ", \"MergeKeys\", true)"
    | Script.Assign_col { frame; col; expr = e } ->
        let cols = layout frame in
        let pos, cols' =
          match List.find_index (fun x -> x = col) cols with
          | Some i -> (i + 1, cols)
          | None -> (List.length cols + 1, cols @ [ col ])
        in
        add_col buf frame pos;
        add buf " = ";
        expr frame e;
        Hashtbl.replace layouts frame cols'
    | Script.Select_cols { dst; src; cols } ->
        let ps = positions (layout src) (List.map fst cols) in
        Hashtbl.replace layouts dst (List.map snd cols);
        assign buf dst;
        add buf src;
        add buf "(:, ";
        add_range buf ps;
        Buffer.add_char buf ')'
    | Script.Group_agg { dst; src; by; aggr; measure } ->
        (* Pre-assign non-column keys, then groupsummary. *)
        let key_names =
          List.map
            (fun (name, e) ->
              match e with
              | Frame_ops.Col c -> c
              | _ ->
                  let cols = layout src in
                  add_col buf src (List.length cols + 1);
                  add buf " = ";
                  expr src e;
                  add buf ";\n";
                  Hashtbl.replace layouts src (cols @ [ name ]);
                  name)
            by
        in
        let measure_name =
          match measure with
          | Frame_ops.Col c -> c
          | _ -> fail "groupsummary measure must be a column"
        in
        Hashtbl.replace layouts dst (List.map fst by @ [ "value" ]);
        assign buf dst;
        add buf "groupsummary(";
        add buf src;
        add buf ", [";
        add_list buf " " (add_quoted buf) key_names;
        add buf "], ";
        add_quoted buf (Stats.Aggregate.to_string aggr);
        add buf ", ";
        add_quoted buf measure_name;
        Buffer.add_char buf ')'
    | Script.Apply_fn { dst; src; fn; params } -> (
        Hashtbl.replace layouts dst (layout src);
        assign buf dst;
        match String.lowercase_ascii fn with
        | "stl_t" ->
            (* The paper's Matlab fragment assumes a trend-isolating
               library acting on vectors. *)
            add buf "isolateTrend(";
            add buf src;
            Buffer.add_char buf ')'
        | _ ->
            add buf fn;
            Buffer.add_char buf '(';
            add buf src;
            List.iter (Printf.bprintf buf ", %g") params;
            Buffer.add_char buf ')')
    | Script.Const_frame { dst; cols; rows } ->
        Hashtbl.replace layouts dst cols;
        assign buf dst;
        Buffer.add_char buf '[';
        add_list buf "; " (add_list buf " " (add_lit buf)) rows;
        Buffer.add_char buf ']'
  in
  try
    List.iter
      (fun stmt ->
        line stmt;
        add buf ";\n")
      script;
    if script = [] then Buffer.add_char buf '\n';
    Ok (Buffer.contents buf)
  with Print_error msg -> Error msg
