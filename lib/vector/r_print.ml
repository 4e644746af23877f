open Matrix

let lit = function
  | Value.String s -> Printf.sprintf "\"%s\"" s
  | Value.Date d -> Printf.sprintf "as.Date(\"%s\")" (Calendar.Date.to_string d)
  | Value.Period p -> Printf.sprintf "\"%s\"" (Calendar.Period.to_string p)
  | Value.Null -> "NA"
  | (Value.Bool _ | Value.Int _ | Value.Float _) as v -> Value.to_string v

let prec = function
  | Frame_ops.Bin (op, _, _) -> Ops.Binop.precedence op
  | Frame_ops.Neg _ -> 4
  | Frame_ops.Shift_val _ -> 1
  | Frame_ops.Col _ | Frame_ops.Lit _ | Frame_ops.Scalar _ | Frame_ops.Dim _
  | Frame_ops.Coalesce_col _ ->
      10

let rec expr_str frame ctx e =
  let s =
    match e with
    | Frame_ops.Col c -> Printf.sprintf "%s[\"%s\"]" frame c
    | Frame_ops.Lit v -> lit v
    | Frame_ops.Bin (op, a, b) ->
        let p = Ops.Binop.precedence op in
        Printf.sprintf "%s %s %s" (expr_str frame p a) (Ops.Binop.to_string op)
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
        Printf.sprintf "dplyr::coalesce(%s, %s)" (expr_str frame 0 a)
          (expr_str frame 0 b)
  in
  if prec e < ctx then "(" ^ s ^ ")" else s

let quoted_list xs =
  "c(" ^ String.concat ", " (List.map (Printf.sprintf "\"%s\"") xs) ^ ")"

let stmt_to_string = function
  | Script.Copy { dst; src } -> [ Printf.sprintf "%s <- %s" dst src ]
  | Script.Filter_rows { dst; src; conditions } ->
      [
        Printf.sprintf "%s <- %s[%s, ]" dst src
          (String.concat " & "
             (List.map
                (fun (col, v) -> Printf.sprintf "%s$%s == %s" src col (lit v))
                conditions));
      ]
  | Script.Merge { dst; left; right; by } ->
      [ Printf.sprintf "%s <- merge(%s, %s, by=%s)" dst left right (quoted_list by) ]
  | Script.Merge_outer { dst; left; right; by } ->
      [
        Printf.sprintf "%s <- merge(%s, %s, by=%s, all=TRUE)" dst left right
          (quoted_list by);
      ]
  | Script.Assign_col { frame; col; expr } ->
      [ Printf.sprintf "%s$%s <- %s" frame col (expr_str frame 0 expr) ]
  | Script.Select_cols { dst; src; cols } ->
      [
        Printf.sprintf "%s <- setNames(%s[%s], %s)" dst src
          (quoted_list (List.map fst cols))
          (quoted_list (List.map snd cols));
      ]
  | Script.Group_agg { dst; src; by; aggr; measure } ->
      [
        Printf.sprintf "%s <- aggregate(x = %s, by = list(%s), FUN = %s)" dst
          (expr_str src 0 measure)
          (String.concat ", "
             (List.map
                (fun (name, e) -> Printf.sprintf "%s = %s" name (expr_str src 0 e))
                by))
          (match aggr with
          | Stats.Aggregate.Avg -> "mean"
          | Stats.Aggregate.Stddev -> "sd"
          | other -> Stats.Aggregate.to_string other);
      ]
  | Script.Apply_fn { dst; src; fn; params } -> (
      match String.lowercase_ascii fn with
      | "stl_t" ->
          (* The paper's R fragment for seasonal decomposition. *)
          [
            Printf.sprintf "%sC <- stl(%s, \"periodic\")" dst src;
            Printf.sprintf "%s <- %sC$time.series[ , \"trend\"]" dst dst;
          ]
      | "stl_s" ->
          [
            Printf.sprintf "%sC <- stl(%s, \"periodic\")" dst src;
            Printf.sprintf "%s <- %sC$time.series[ , \"seasonal\"]" dst dst;
          ]
      | "stl_r" ->
          [
            Printf.sprintf "%sC <- stl(%s, \"periodic\")" dst src;
            Printf.sprintf "%s <- %sC$time.series[ , \"remainder\"]" dst dst;
          ]
      | _ ->
          [
            Printf.sprintf "%s <- %s(%s%s)" dst fn src
              (String.concat ""
                 (List.map (Printf.sprintf ", %g") params));
          ])
  | Script.Const_frame { dst; cols; rows } ->
      [
        Printf.sprintf "%s <- data.frame(%s)" dst
          (String.concat ", "
             (List.mapi
                (fun ci name ->
                  Printf.sprintf "%s = c(%s)" name
                    (String.concat ", "
                       (List.map (fun row -> lit (List.nth row ci)) rows)))
                cols));
      ]

let script_to_string script =
  String.concat "\n" (List.concat_map stmt_to_string script) ^ "\n"
