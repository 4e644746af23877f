open Matrix
module Env = Exl.Typecheck.Env

type generated = {
  mapping : Mapping.t;
  normalized : Exl.Typecheck.checked;
}

let fresh_measure_var forbidden base =
  let rec loop i =
    let candidate = if i = 0 then base else Printf.sprintf "%s%d" base i in
    if List.mem candidate forbidden then loop (i + 1) else candidate
  in
  loop 0

let dim_vars schema = Schema.dim_names schema

(* The atom F(d1, ..., dn, m) using the cube's own dimension names as
   variables — shared names across atoms become join conditions, which
   is exactly the paper's repeated-variable convention. *)
let cube_atom schema measure_var =
  Tgd.atom schema.Schema.name
    (List.map (fun d -> Term.Var d) (dim_vars schema)
    @ [ Term.Var measure_var ])

let result_atom env lhs measure_term =
  let schema = Env.schema_exn env lhs in
  Tgd.atom lhs
    (List.map (fun d -> Term.Var d) (dim_vars schema) @ [ measure_term ])

let operand_schema env pos name =
  match Env.schema env name with
  | Some s -> s
  | None -> Exl.Errors.failf ~pos "unknown cube %s in normalized statement" name

let const_of_number f = Term.Const (Value.Float f)

let tgd_of_binop env (s : Exl.Ast.stmt) op a b =
  let pos = s.Exl.Ast.s_pos in
  match (a, b) with
  | Exl.Ast.Number x, Exl.Ast.Number y ->
      Tgd.Tuple_level
        {
          lhs = [];
          rhs =
            Tgd.atom s.Exl.Ast.lhs
              [ Term.Binapp (op, const_of_number x, const_of_number y) ];
        }
  | Exl.Ast.Cube_ref ca, Exl.Ast.Number y ->
      let sa = operand_schema env pos ca in
      let m = fresh_measure_var (dim_vars sa) "m" in
      Tgd.Tuple_level
        {
          lhs = [ cube_atom sa m ];
          rhs =
            result_atom env s.Exl.Ast.lhs
              (Term.Binapp (op, Term.Var m, const_of_number y));
        }
  | Exl.Ast.Number x, Exl.Ast.Cube_ref cb ->
      let sb = operand_schema env pos cb in
      let m = fresh_measure_var (dim_vars sb) "m" in
      Tgd.Tuple_level
        {
          lhs = [ cube_atom sb m ];
          rhs =
            result_atom env s.Exl.Ast.lhs
              (Term.Binapp (op, const_of_number x, Term.Var m));
        }
  | Exl.Ast.Cube_ref ca, Exl.Ast.Cube_ref cb ->
      let sa = operand_schema env pos ca in
      let sb = operand_schema env pos cb in
      let forbidden = dim_vars sa @ dim_vars sb in
      let m1 = fresh_measure_var forbidden "m1" in
      let m2 = fresh_measure_var (m1 :: forbidden) "m2" in
      Tgd.Tuple_level
        {
          lhs = [ cube_atom sa m1; cube_atom sb m2 ];
          rhs =
            result_atom env s.Exl.Ast.lhs
              (Term.Binapp (op, Term.Var m1, Term.Var m2));
        }
  | _ ->
      Exl.Errors.fail ~pos
        "statement is not normalized: binary operator over non-atomic operands"

let tgd_of_shift env (s : Exl.Ast.stmt) (c : Exl.Ast.call) =
  let pos = c.Exl.Ast.pos in
  let operand, dim, amount =
    match c.Exl.Ast.args with
    | [ Exl.Ast.Cube_ref a; k ] when Exl.Ast.as_number k <> None ->
        (a, None, int_of_float (Option.get (Exl.Ast.as_number k)))
    | [ Exl.Ast.Cube_ref a; Exl.Ast.Cube_ref d; k ]
      when Exl.Ast.as_number k <> None ->
        (a, Some d, int_of_float (Option.get (Exl.Ast.as_number k)))
    | _ -> Exl.Errors.fail ~pos "malformed or non-normalized shift"
  in
  let schema = operand_schema env pos operand in
  let tdim =
    match dim with
    | Some d -> d
    | None -> (
        match Schema.time_dims schema with
        | [ d ] -> d
        | _ -> Exl.Errors.fail ~pos "shift: ambiguous temporal dimension")
  in
  let m = fresh_measure_var (dim_vars schema) "m" in
  (* A tuple at time t lands at time t + k in the result: the lag
     convention, C(t, y) → C'(t + k, y). *)
  let rhs_args =
    List.map
      (fun d ->
        if d = tdim then Term.Shifted (Term.Var d, amount) else Term.Var d)
      (dim_vars (Env.schema_exn env s.Exl.Ast.lhs))
    @ [ Term.Var m ]
  in
  Tgd.Tuple_level
    { lhs = [ cube_atom schema m ]; rhs = Tgd.atom s.Exl.Ast.lhs rhs_args }

let tgd_of_agg env (s : Exl.Ast.stmt) (c : Exl.Ast.call) aggr =
  let pos = c.Exl.Ast.pos in
  let operand =
    match c.Exl.Ast.args with
    | [ Exl.Ast.Cube_ref a ] -> a
    | _ -> Exl.Errors.failf ~pos "malformed or non-normalized %s" c.Exl.Ast.fn
  in
  let schema = operand_schema env pos operand in
  let m = fresh_measure_var (dim_vars schema) "m" in
  let group_by =
    List.map
      (fun (item : Exl.Ast.dim_item) ->
        match item.Exl.Ast.fn with
        | None -> Term.Var item.Exl.Ast.src
        | Some fn -> Term.Dim_fn (fn, Term.Var item.Exl.Ast.src))
      (Option.value ~default:[] c.Exl.Ast.group_by)
  in
  Tgd.Aggregation
    {
      source = cube_atom schema m;
      group_by;
      aggr;
      measure = m;
      target = s.Exl.Ast.lhs;
    }

let tgd_of_scalar env (s : Exl.Ast.stmt) (c : Exl.Ast.call) =
  let pos = c.Exl.Ast.pos in
  match Exl.Ast.split_call_args c with
  | Error msg -> Exl.Errors.fail ~pos msg
  | Ok (params, operand) -> (
      match operand with
      | Some (Exl.Ast.Cube_ref a) ->
          let schema = operand_schema env pos a in
          let m = fresh_measure_var (dim_vars schema) "m" in
          Tgd.Tuple_level
            {
              lhs = [ cube_atom schema m ];
              rhs =
                result_atom env s.Exl.Ast.lhs
                  (Term.Scalar_fn (c.Exl.Ast.fn, params, Term.Var m));
            }
      | Some _ ->
          Exl.Errors.fail ~pos "statement is not normalized: nested operand"
      | None -> (
          match List.rev params with
          | x :: rest ->
              Tgd.Tuple_level
                {
                  lhs = [];
                  rhs =
                    Tgd.atom s.Exl.Ast.lhs
                      [
                        Term.Scalar_fn
                          (c.Exl.Ast.fn, List.rev rest, const_of_number x);
                      ];
                }
          | [] -> Exl.Errors.failf ~pos "%s is missing its operand" c.Exl.Ast.fn))

let default_for = function
  | Ops.Binop.Add | Ops.Binop.Sub -> 0.
  | Ops.Binop.Mul | Ops.Binop.Div | Ops.Binop.Pow -> 1.

let tgd_of_outer env (s : Exl.Ast.stmt) (c : Exl.Ast.call) op =
  let pos = c.Exl.Ast.pos in
  let a, b, default =
    match c.Exl.Ast.args with
    | [ Exl.Ast.Cube_ref a; Exl.Ast.Cube_ref b ] -> (a, b, default_for op)
    | [ Exl.Ast.Cube_ref a; Exl.Ast.Cube_ref b; d ]
      when Exl.Ast.as_number d <> None ->
        (a, b, Option.get (Exl.Ast.as_number d))
    | _ -> Exl.Errors.failf ~pos "malformed or non-normalized %s" c.Exl.Ast.fn
  in
  let sa = operand_schema env pos a in
  let sb = operand_schema env pos b in
  let forbidden = dim_vars sa @ dim_vars sb in
  let m1 = fresh_measure_var forbidden "m1" in
  let m2 = fresh_measure_var (m1 :: forbidden) "m2" in
  Tgd.Outer_combine
    {
      left = cube_atom sa m1;
      right = cube_atom sb m2;
      op;
      default;
      target = s.Exl.Ast.lhs;
    }

let tgd_of_filter env (s : Exl.Ast.stmt) (c : Exl.Ast.call) =
  let pos = c.Exl.Ast.pos in
  let operand =
    match c.Exl.Ast.args with
    | [ Exl.Ast.Cube_ref a ] -> a
    | _ -> Exl.Errors.fail ~pos "malformed or non-normalized filter"
  in
  let schema = operand_schema env pos operand in
  let m = fresh_measure_var (dim_vars schema) "m" in
  (* Selection becomes constants in the atom: the classical way tgds
     express conditions, e.g. DEPOSITS(m, s, "overnight", y) → ... *)
  let term_for dim =
    match List.assoc_opt dim c.Exl.Ast.conditions with
    | None -> Term.Var dim
    | Some literal -> (
        match Schema.dim_domain schema dim with
        | Some domain -> (
            match Exl.Ast.coerce_literal domain literal with
            | Some v -> Term.Const v
            | None ->
                Exl.Errors.failf ~pos "filter literal does not fit dimension %s"
                  dim)
        | None -> Exl.Errors.failf ~pos "filter: no dimension %s" dim)
  in
  let args = List.map term_for (dim_vars schema) @ [ Term.Var m ] in
  Tgd.Tuple_level
    {
      lhs = [ Tgd.atom schema.Schema.name args ];
      rhs = Tgd.atom s.Exl.Ast.lhs args;
    }

let tgd_of_blackbox env (s : Exl.Ast.stmt) (c : Exl.Ast.call) =
  let pos = c.Exl.Ast.pos in
  match Exl.Ast.split_call_args c with
  | Error msg -> Exl.Errors.fail ~pos msg
  | Ok (params, operand) -> (
      match operand with
      | Some (Exl.Ast.Cube_ref a) ->
          ignore (operand_schema env pos a);
          Tgd.Table_fn
            { fn = c.Exl.Ast.fn; params; source = a; target = s.Exl.Ast.lhs }
      | _ ->
          Exl.Errors.fail ~pos
            "statement is not normalized: black-box operand must be a cube name")

let tgd_of_stmt_exn env (s : Exl.Ast.stmt) =
  match s.Exl.Ast.rhs with
  | Exl.Ast.Number f ->
      Tgd.Tuple_level
        { lhs = []; rhs = Tgd.atom s.Exl.Ast.lhs [ const_of_number f ] }
  | Exl.Ast.Cube_ref a ->
      let schema = operand_schema env s.Exl.Ast.s_pos a in
      let m = fresh_measure_var (dim_vars schema) "m" in
      Tgd.Tuple_level
        {
          lhs = [ cube_atom schema m ];
          rhs = result_atom env s.Exl.Ast.lhs (Term.Var m);
        }
  | Exl.Ast.Neg (Exl.Ast.Number f) ->
      Tgd.Tuple_level
        { lhs = []; rhs = Tgd.atom s.Exl.Ast.lhs [ const_of_number (-.f) ] }
  | Exl.Ast.Neg (Exl.Ast.Cube_ref a) ->
      let schema = operand_schema env s.Exl.Ast.s_pos a in
      let m = fresh_measure_var (dim_vars schema) "m" in
      Tgd.Tuple_level
        {
          lhs = [ cube_atom schema m ];
          rhs = result_atom env s.Exl.Ast.lhs (Term.Neg (Term.Var m));
        }
  | Exl.Ast.Binop (op, a, b) -> tgd_of_binop env s op a b
  | Exl.Ast.Call c -> (
      match Exl.Ast.classify c.Exl.Ast.fn with
      | Exl.Ast.Shift_op -> tgd_of_shift env s c
      | Exl.Ast.Filter_op -> tgd_of_filter env s c
      | Exl.Ast.Outer_op op -> tgd_of_outer env s c op
      | Exl.Ast.Agg_op aggr -> tgd_of_agg env s c aggr
      | Exl.Ast.Scalar_op _ -> tgd_of_scalar env s c
      | Exl.Ast.Blackbox_op _ -> tgd_of_blackbox env s c
      | Exl.Ast.Unknown_op ->
          Exl.Errors.failf ~pos:c.Exl.Ast.pos "unknown operator %s" c.Exl.Ast.fn)
  | Exl.Ast.Neg _ ->
      Exl.Errors.fail ~pos:s.Exl.Ast.s_pos
        "statement is not normalized: negation of a non-atom"

let of_checked checked =
  let normalized_result =
    if Exl.Normalize.is_normal checked.Exl.Typecheck.program then Ok checked
    else Exl.Normalize.checked checked
  in
  Result.bind normalized_result (fun normalized ->
      Exl.Errors.protect (fun () ->
          let env = normalized.Exl.Typecheck.env in
          let t_tgds =
            List.map (tgd_of_stmt_exn env) normalized.Exl.Typecheck.statements
          in
          let source = Exl.Typecheck.elementary_schemas normalized in
          let target =
            source @ Exl.Typecheck.derived_schemas normalized
          in
          let st_tgds =
            List.map
              (fun schema ->
                let m = fresh_measure_var (dim_vars schema) "m" in
                let a = cube_atom schema m in
                Tgd.Tuple_level { lhs = [ a ]; rhs = a })
              source
          in
          let egds = List.map Egd.of_schema target in
          {
            mapping = { Mapping.source; target; st_tgds; t_tgds; egds };
            normalized;
          }))

let of_source src = Result.bind (Exl.Program.load src) of_checked
