open Matrix
module Tgd = Mappings.Tgd
module Term = Mappings.Term

exception Gen_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Gen_error m)) fmt

let columns_of_schema schema =
  Schema.dim_names schema @ [ schema.Schema.measure_name ]

let rec col_expr_of_term binding t =
  match t with
  | Term.Var v -> (
      match List.assoc_opt v binding with
      | Some c -> Frame_ops.Col c
      | None -> fail "variable %s is not bound" v)
  | Term.Const c -> Frame_ops.Lit c
  | Term.Shifted (t, k) -> Frame_ops.Shift_val (col_expr_of_term binding t, k)
  | Term.Dim_fn (fn, t) -> Frame_ops.Dim (fn, col_expr_of_term binding t)
  | Term.Scalar_fn (fn, params, t) ->
      Frame_ops.Scalar (fn, params, col_expr_of_term binding t)
  | Term.Binapp (op, a, b) ->
      Frame_ops.Bin (op, col_expr_of_term binding a, col_expr_of_term binding b)
  | Term.Neg t -> Frame_ops.Neg (col_expr_of_term binding t)
  | Term.Coalesce (a, b) ->
      Frame_ops.Coalesce_col (col_expr_of_term binding a, col_expr_of_term binding b)

(* Variables appearing as plain args in an atom, with their column. *)
let plain_vars mapping (atom : Tgd.atom) =
  let schema = Mappings.Mapping.target_schema_exn mapping atom.Tgd.rel in
  List.mapi (fun i term -> (i, term)) atom.Tgd.args
  |> List.filter_map (fun (i, term) ->
         match term with
         | Term.Var v -> Some (v, List.nth (columns_of_schema schema) i)
         | _ -> None)

(* Constant args in an atom become row-selection conditions. *)
let const_conditions mapping (atom : Tgd.atom) =
  let schema = Mappings.Mapping.target_schema_exn mapping atom.Tgd.rel in
  List.mapi (fun i term -> (i, term)) atom.Tgd.args
  |> List.filter_map (fun (i, term) ->
         match term with
         | Term.Const v -> Some (List.nth (columns_of_schema schema) i, v)
         | _ -> None)

(* A source step for an atom: a plain frame reference when there are no
   conditions, else a filtered copy named [hint]. *)
let source_frame mapping atom ~hint =
  match const_conditions mapping atom with
  | [] -> (atom.Tgd.rel, [])
  | conditions ->
      ( hint,
        [ Script.Filter_rows { dst = hint; src = atom.Tgd.rel; conditions } ] )

let tuple_level mapping lhs (rhs : Tgd.atom) =
  let target = rhs.Tgd.rel in
  let target_schema = Mappings.Mapping.target_schema_exn mapping target in
  let target_cols = columns_of_schema target_schema in
  let tmp = "t_" ^ target in
  match lhs with
  | [] ->
      let row = List.map (Term.eval (fun _ -> None)) rhs.Tgd.args in
      let rows =
        if List.for_all Option.is_some row then [ List.map Option.get row ]
        else []
      in
      [ Script.Const_frame { dst = target; cols = target_cols; rows } ]
  | [ atom ] ->
      let binding = plain_vars mapping atom in
      let src_name, filter_steps = source_frame mapping atom ~hint:(tmp ^ "_f") in
      let prelude =
        filter_steps @ [ Script.Copy { dst = tmp; src = src_name } ]
      in
      let assigns = ref [] in
      let cols =
        List.map2
          (fun term target_col ->
            match term with
            | Term.Var v -> (List.assoc v binding, target_col)
            | _ ->
                let c = "c_" ^ target_col in
                assigns :=
                  Script.Assign_col
                    { frame = tmp; col = c; expr = col_expr_of_term binding term }
                  :: !assigns;
                (c, target_col))
          rhs.Tgd.args target_cols
      in
      prelude @ List.rev !assigns
      @ [ Script.Select_cols { dst = target; src = tmp; cols } ]
  | [ left; right ] ->
      let left_schema = Mappings.Mapping.target_schema_exn mapping left.Tgd.rel in
      let right_schema =
        Mappings.Mapping.target_schema_exn mapping right.Tgd.rel
      in
      let left_plain = plain_vars mapping left in
      let right_plain = plain_vars mapping right in
      (* Join keys: variables plain on both sides (same column names by
         generation: dimension names are the variables). *)
      let by =
        List.filter_map
          (fun (v, c) ->
            match List.assoc_opt v right_plain with
            | Some c' when c = c' -> Some c
            | _ -> None)
          left_plain
      in
      if List.exists (fun (v, _) -> List.assoc_opt v right_plain <> None
                                    && not (List.mem (List.assoc v left_plain) by))
           left_plain
      then fail "join variables must live in equally named columns";
      let left_cols = columns_of_schema left_schema in
      let right_cols = columns_of_schema right_schema in
      let clash c =
        (not (List.mem c by)) && List.mem c left_cols && List.mem c right_cols
      in
      let binding =
        List.map
          (fun (v, c) -> (v, if clash c then c ^ "_x" else c))
          left_plain
        @ List.filter_map
            (fun (v, c) ->
              if List.mem_assoc v left_plain then None
              else Some (v, if clash c then c ^ "_y" else c))
            right_plain
      in
      let assigns = ref [] in
      let cols =
        List.map2
          (fun term target_col ->
            match term with
            | Term.Var v -> (List.assoc v binding, target_col)
            | _ ->
                let c = "c_" ^ target_col in
                assigns :=
                  Script.Assign_col
                    { frame = tmp; col = c; expr = col_expr_of_term binding term }
                  :: !assigns;
                (c, target_col))
          rhs.Tgd.args target_cols
      in
      let left_name, left_filters =
        source_frame mapping left ~hint:(tmp ^ "_fl")
      in
      let right_name, right_filters =
        source_frame mapping right ~hint:(tmp ^ "_fr")
      in
      left_filters @ right_filters
      @ [ Script.Merge { dst = tmp; left = left_name; right = right_name; by } ]
      @ List.rev !assigns
      @ [ Script.Select_cols { dst = target; src = tmp; cols } ]
  | _ ->
      fail
        "vector target supports at most two atoms per tgd; run on the unfused mapping"

let aggregation mapping (source : Tgd.atom) group_by aggr measure target =
  let target_schema = Mappings.Mapping.target_schema_exn mapping target in
  let binding = plain_vars mapping source in
  let measure_col =
    match List.assoc_opt measure binding with
    | Some c -> c
    | None -> fail "aggregation measure %s is not a plain variable" measure
  in
  let by =
    List.map2
      (fun term dim_name -> (dim_name, col_expr_of_term binding term))
      group_by
      (Schema.dim_names target_schema)
  in
  let tmp = "t_" ^ target in
  [
    Script.Group_agg
      { dst = tmp; src = source.Tgd.rel; by; aggr; measure = Frame_ops.Col measure_col };
    Script.Select_cols
      {
        dst = target;
        src = tmp;
        cols =
          List.map (fun d -> (d, d)) (Schema.dim_names target_schema)
          @ [ ("value", target_schema.Schema.measure_name) ];
      };
  ]

(* vadd(A, B): outer merge, coalesced measures, combined. *)
let outer_combine mapping (left : Tgd.atom) (right : Tgd.atom) op default target =
  let target_schema = Mappings.Mapping.target_schema_exn mapping target in
  let dims = Schema.dim_names target_schema in
  let left_schema = Mappings.Mapping.target_schema_exn mapping left.Tgd.rel in
  let right_schema = Mappings.Mapping.target_schema_exn mapping right.Tgd.rel in
  let lm = left_schema.Schema.measure_name in
  let rm = right_schema.Schema.measure_name in
  let lm_out, rm_out = if lm = rm then (lm ^ "_x", rm ^ "_y") else (lm, rm) in
  let tmp = "t_" ^ target in
  let coalesced col =
    Frame_ops.Coalesce_col (Frame_ops.Col col, Frame_ops.Lit (Value.Float default))
  in
  [
    Script.Merge_outer { dst = tmp; left = left.Tgd.rel; right = right.Tgd.rel; by = dims };
    Script.Assign_col
      {
        frame = tmp;
        col = "c_value";
        expr = Frame_ops.Bin (op, coalesced lm_out, coalesced rm_out);
      };
    Script.Select_cols
      {
        dst = target;
        src = tmp;
        cols =
          List.map (fun d -> (d, d)) dims
          @ [ ("c_value", target_schema.Schema.measure_name) ];
      };
  ]

let stmts_of_tgd mapping tgd =
  try
    Ok
      (match tgd with
      | Tgd.Tuple_level { lhs; rhs } -> tuple_level mapping lhs rhs
      | Tgd.Aggregation { source; group_by; aggr; measure; target } ->
          aggregation mapping source group_by aggr measure target
      | Tgd.Table_fn { fn; params; source; target } ->
          [ Script.Apply_fn { dst = target; src = source; fn; params } ]
      | Tgd.Outer_combine { left; right; op; default; target } ->
          outer_combine mapping left right op default target)
  with Gen_error msg -> Error msg

let script_of_mapping mapping =
  let rec loop acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | tgd :: rest -> (
        match stmts_of_tgd mapping tgd with
        | Ok stmts -> loop (stmts :: acc) rest
        | Error msg ->
            Error (Printf.sprintf "on tgd [%s]: %s" (Tgd.to_string tgd) msg))
  in
  loop [] mapping.Mappings.Mapping.t_tgds
