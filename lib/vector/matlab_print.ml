open Matrix

exception Print_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Print_error m)) fmt

let columns_of_schema schema =
  Schema.dim_names schema @ [ schema.Schema.measure_name ]

let lit = function
  | Value.String s -> Printf.sprintf "\"%s\"" s
  | Value.Date d -> Printf.sprintf "datetime(\"%s\")" (Calendar.Date.to_string d)
  | Value.Period p -> Printf.sprintf "\"%s\"" (Calendar.Period.to_string p)
  | Value.Null -> "NaN"
  | (Value.Bool _ | Value.Int _ | Value.Float _) as v -> Value.to_string v

let matlab_binop = function
  | Ops.Binop.Add -> "+"
  | Ops.Binop.Sub -> "-"
  | Ops.Binop.Mul -> ".*"
  | Ops.Binop.Div -> "./"
  | Ops.Binop.Pow -> ".^"

let positions cols wanted =
  List.map
    (fun c ->
      match List.find_index (fun x -> x = c) cols with
      | Some i -> i + 1
      | None -> fail "column %s not in layout [%s]" c (String.concat "; " cols))
    wanted

let range_str ps =
  "[" ^ String.concat " " (List.map string_of_int ps) ^ "]"

let script_to_string ~schemas script =
  let layouts : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let layout name =
    match Hashtbl.find_opt layouts name with
    | Some l -> l
    | None -> (
        match schemas name with
        | Some s -> columns_of_schema s
        | None -> fail "unknown frame %s" name)
  in
  let rec expr_str frame ctx e =
    let cols = layout frame in
    let prec = function
      | Frame_ops.Bin (op, _, _) -> Ops.Binop.precedence op
      | Frame_ops.Neg _ -> 4
      | Frame_ops.Shift_val _ -> 1
      | Frame_ops.Col _ | Frame_ops.Lit _ | Frame_ops.Scalar _ | Frame_ops.Dim _
      | Frame_ops.Coalesce_col _ ->
          10
    in
    let s =
      match e with
      | Frame_ops.Col c ->
          Printf.sprintf "%s(:,%d)" frame (List.hd (positions cols [ c ]))
      | Frame_ops.Lit v -> lit v
      | Frame_ops.Bin (op, a, b) ->
          let p = Ops.Binop.precedence op in
          Printf.sprintf "%s %s %s" (expr_str frame p a) (matlab_binop op)
            (expr_str frame (p + 1) b)
      | Frame_ops.Neg a -> "-" ^ expr_str frame 4 a
      | Frame_ops.Scalar (fn, [], a) ->
          Printf.sprintf "%s(%s)" fn (expr_str frame 0 a)
      | Frame_ops.Scalar (fn, params, a) ->
          Printf.sprintf "%s(%s, %s)" fn (expr_str frame 0 a)
            (String.concat ", " (List.map (Printf.sprintf "%g") params))
      | Frame_ops.Dim (fn, a) -> Printf.sprintf "%s(%s)" fn (expr_str frame 0 a)
      | Frame_ops.Shift_val (a, k) ->
          if k >= 0 then Printf.sprintf "%s + %d" (expr_str frame 2 a) k
          else Printf.sprintf "%s - %d" (expr_str frame 2 a) (-k)
      | Frame_ops.Coalesce_col (a, b) ->
          Printf.sprintf "fillmissing2(%s, %s)" (expr_str frame 0 a)
            (expr_str frame 0 b)
    in
    if prec e < ctx then "(" ^ s ^ ")" else s
  in
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
  let line stmt =
    match stmt with
    | Script.Copy { dst; src } ->
        Hashtbl.replace layouts dst (layout src);
        [ Printf.sprintf "%s = %s;" dst src ]
    | Script.Filter_rows { dst; src; conditions } ->
        let cols = layout src in
        Hashtbl.replace layouts dst cols;
        [
          Printf.sprintf "%s = %s(%s, :);" dst src
            (String.concat " & "
               (List.map
                  (fun (col, v) ->
                    Printf.sprintf "%s(:,%d) == %s" src
                      (List.hd (positions cols [ col ]))
                      (lit v))
                  conditions));
        ]
    | Script.Merge { dst; left; right; by } ->
        let lpos = positions (layout left) by in
        let rpos = positions (layout right) by in
        Hashtbl.replace layouts dst (merge_layout left right by);
        [
          Printf.sprintf "%s = join(%s, %s, %s, %s);" dst left (range_str lpos)
            right (range_str rpos);
        ]
    | Script.Merge_outer { dst; left; right; by } ->
        let lpos = positions (layout left) by in
        let rpos = positions (layout right) by in
        (* outer merge keeps a single (coalesced) copy of the keys *)
        let keys_first =
          by
          @ List.filter (fun c -> not (List.mem c by)) (merge_layout left right by)
        in
        Hashtbl.replace layouts dst keys_first;
        [
          Printf.sprintf "%s = outerjoin(%s, %s, %s, %s, \"MergeKeys\", true);"
            dst left (range_str lpos) right (range_str rpos);
        ]
    | Script.Assign_col { frame; col; expr } ->
        let cols = layout frame in
        let rendered = expr_str frame 0 expr in
        let pos, cols' =
          match List.find_index (fun x -> x = col) cols with
          | Some i -> (i + 1, cols)
          | None -> (List.length cols + 1, cols @ [ col ])
        in
        Hashtbl.replace layouts frame cols';
        [ Printf.sprintf "%s(:,%d) = %s;" frame pos rendered ]
    | Script.Select_cols { dst; src; cols } ->
        let ps = positions (layout src) (List.map fst cols) in
        Hashtbl.replace layouts dst (List.map snd cols);
        [ Printf.sprintf "%s = %s(:, %s);" dst src (range_str ps) ]
    | Script.Group_agg { dst; src; by; aggr; measure } ->
        (* Pre-assign non-column keys, then groupsummary. *)
        let pre = ref [] in
        let key_names =
          List.map
            (fun (name, e) ->
              match e with
              | Frame_ops.Col c -> c
              | _ ->
                  let cols = layout src in
                  let rendered = expr_str src 0 e in
                  Hashtbl.replace layouts src (cols @ [ name ]);
                  pre :=
                    Printf.sprintf "%s(:,%d) = %s;" src
                      (List.length cols + 1)
                      rendered
                    :: !pre;
                  name)
            by
        in
        let measure_name =
          match measure with
          | Frame_ops.Col c -> c
          | _ -> fail "groupsummary measure must be a column"
        in
        Hashtbl.replace layouts dst (List.map fst by @ [ "value" ]);
        List.rev !pre
        @ [
            Printf.sprintf "%s = groupsummary(%s, [%s], \"%s\", \"%s\");" dst src
              (String.concat " "
                 (List.map (Printf.sprintf "\"%s\"") key_names))
              (Stats.Aggregate.to_string aggr)
              measure_name;
          ]
    | Script.Apply_fn { dst; src; fn; params } ->
        Hashtbl.replace layouts dst (layout src);
        let call =
          match String.lowercase_ascii fn with
          | "stl_t" ->
              (* The paper's Matlab fragment assumes a trend-isolating
                 library acting on vectors. *)
              Printf.sprintf "%s = isolateTrend(%s);" dst src
          | _ ->
              Printf.sprintf "%s = %s(%s%s);" dst fn src
                (String.concat "" (List.map (Printf.sprintf ", %g") params))
        in
        [ call ]
    | Script.Const_frame { dst; cols; rows } ->
        Hashtbl.replace layouts dst cols;
        [
          Printf.sprintf "%s = [%s];" dst
            (String.concat "; "
               (List.map
                  (fun row -> String.concat " " (List.map lit row))
                  rows));
        ]
  in
  try Ok (String.concat "\n" (List.concat_map line script) ^ "\n")
  with Print_error msg -> Error msg
