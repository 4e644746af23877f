open Matrix

type value = V_scalar of float | V_cube of Cube.t

(* The time-shift on one dimension value: periods shift by index, dates
   by days; [None] on non-temporal values.  Every target engine
   implements the same convention: positive amounts lag, i.e.
   [shift(e, s)] holds at time [t] the value of [e] at [t - s] (the
   paper's statements (5a)-(5d) and tgd (5) compare a quarter with its
   predecessor). *)
let shift_key_value amount v =
  match v with
  | Value.Period p -> Some (Value.Period (Calendar.Period.shift p amount))
  | Value.Date d -> Some (Value.Date (Calendar.Date.add_days d amount))
  | Value.(Null | Bool _ | Int _ | Float _ | String _) -> None

(* The conventional default for the missing side: the operation's
   neutral element on that side (paper: "in the sum operator, we could
   have zero as the default value"). *)
let default_for = function
  | Ops.Binop.Add | Ops.Binop.Sub -> 0.
  | Ops.Binop.Mul | Ops.Binop.Div | Ops.Binop.Pow -> 1.

let dims_of_cube c =
  Array.to_list (Cube.schema c).Schema.dims
  |> List.map (fun d -> (d.Schema.dim_name, d.Schema.dim_domain))

let align_dims target c =
  let schema = Cube.schema c in
  let current = Schema.dim_names schema in
  if current = List.map fst target then c
  else
    let perm =
      Array.of_list
        (List.map (fun (n, _) -> Schema.dim_index_exn schema n) target)
    in
    let out_schema =
      Schema.make ~measure_name:schema.Schema.measure_name
        ~measure_domain:schema.Schema.measure_domain ~name:schema.Schema.name
        ~dims:target ()
    in
    Cube.mapi (fun k v -> Some (Tuple.project k perm, v)) out_schema c

let anon_schema dims = Schema.make ~name:"_" ~dims ()

let rec eval env reg expr : value =
  match expr with
  | Ast.Number f -> V_scalar f
  | Ast.Cube_ref name -> (
      match Registry.find reg name with
      | Some c -> V_cube c
      | None -> (
          (* A declared but unloaded elementary cube is empty. *)
          match Typecheck.Env.schema env name with
          | Some s -> V_cube (Cube.create s)
          | None -> Errors.failf "reference to undefined cube %s" name))
  | Ast.Neg e -> (
      match eval env reg e with
      | V_scalar f -> V_scalar (-.f)
      | V_cube c ->
          V_cube
            (Cube.map_measure
               (fun v ->
                 match Value.to_float v with
                 | Some f -> Value.of_float (-.f)
                 | None -> Value.Null)
               c))
  | Ast.Binop (op, a, b) -> eval_binop env reg op a b
  | Ast.Call c -> eval_call env reg c

and eval_binop env reg op a b =
  match (eval env reg a, eval env reg b) with
  | V_scalar x, V_scalar y -> (
      match Ops.Binop.eval op x y with
      | Some r -> V_scalar r
      | None ->
          Errors.failf "constant expression %g %s %g is undefined" x
            (Ops.Binop.to_string op) y)
  | V_cube c, V_scalar y ->
      V_cube
        (Cube.map_measure (fun v -> Ops.Binop.eval_value op v (Value.Float y)) c)
  | V_scalar x, V_cube c ->
      V_cube
        (Cube.map_measure (fun v -> Ops.Binop.eval_value op (Value.Float x) v) c)
  | V_cube ca, V_cube cb ->
      let dims = dims_of_cube ca in
      let cb = align_dims dims cb in
      V_cube
        (Cube.merge_join (Ops.Binop.eval_value op) (anon_schema dims) ca cb)

and eval_call env reg (c : Ast.call) =
  match Ast.classify c.fn with
  | Ast.Shift_op -> eval_shift env reg c
  | Ast.Filter_op -> eval_filter env reg c
  | Ast.Outer_op op -> eval_outer env reg c op
  | Ast.Agg_op aggr -> eval_agg env reg c aggr
  | Ast.Scalar_op s -> eval_scalar env reg c s
  | Ast.Blackbox_op b -> eval_blackbox env reg c b
  | Ast.Unknown_op -> Errors.failf ~pos:c.pos "unknown operator %s" c.fn

and eval_cube_operand env reg what e =
  match eval env reg e with
  | V_cube c -> c
  | V_scalar _ -> Errors.failf "%s operand must be a cube" what

and eval_outer env reg (c : Ast.call) op =
  let a, b, default =
    match c.args with
    | [ a; b ] -> (a, b, default_for op)
    | [ a; b; d ] when Ast.as_number d <> None ->
        (a, b, Option.get (Ast.as_number d))
    | _ -> Errors.failf ~pos:c.pos "malformed %s call" c.fn
  in
  let ca = eval_cube_operand env reg c.fn a in
  let cb = eval_cube_operand env reg c.fn b in
  let dims = dims_of_cube ca in
  let cb = align_dims dims cb in
  let combine va vb =
    let f v = Option.value ~default (Option.bind v Value.to_float) in
    match Ops.Binop.eval op (f va) (f vb) with
    | Some r -> Value.of_float r
    | None -> Value.Null
  in
  V_cube (Cube.merge_outer combine (anon_schema dims) ca cb)

and eval_filter env reg (c : Ast.call) =
  let operand =
    match c.args with
    | [ e ] -> e
    | _ -> Errors.fail ~pos:c.pos "malformed filter call"
  in
  let cube = eval_cube_operand env reg "filter" operand in
  let schema = Cube.schema cube in
  let checks =
    List.map
      (fun (dim, literal) ->
        let idx = Schema.dim_index_exn schema dim in
        let domain = Option.get (Schema.dim_domain schema dim) in
        match Ast.coerce_literal domain literal with
        | Some v -> (idx, v)
        | None ->
            Errors.failf ~pos:c.pos "filter: literal %s does not fit dimension %s"
              (Value.to_string literal) dim)
      c.conditions
  in
  V_cube
    (Cube.filter
       (fun k _ ->
         List.for_all (fun (idx, v) -> Value.equal (Tuple.get k idx) v) checks)
       cube)

and eval_shift env reg c =
  let operand, dim, amount =
    match c.args with
    | [ e; k ] when Ast.as_number k <> None ->
        (e, None, int_of_float (Option.get (Ast.as_number k)))
    | [ e; Ast.Cube_ref d; k ] when Ast.as_number k <> None ->
        (e, Some d, int_of_float (Option.get (Ast.as_number k)))
    | _ -> Errors.fail ~pos:c.pos "malformed shift call"
  in
  let cube = eval_cube_operand env reg "shift" operand in
  let schema = Cube.schema cube in
  let tdim =
    match dim with
    | Some d -> Schema.dim_index_exn schema d
    | None -> (
        match Schema.time_dims schema with
        | [ d ] -> Schema.dim_index_exn schema d
        | _ -> Errors.fail ~pos:c.pos "shift: ambiguous temporal dimension")
  in
  let out =
    Cube.mapi
      (fun k v ->
        match shift_key_value amount (Tuple.get k tdim) with
        | Some shifted ->
            let arr = Tuple.to_array k in
            arr.(tdim) <- shifted;
            Some (Tuple.of_array arr, v)
        | None -> None)
      schema cube
  in
  V_cube out

and eval_agg env reg (c : Ast.call) aggr =
  let operand =
    match c.args with
    | [ e ] -> e
    | _ -> Errors.failf ~pos:c.pos "%s expects one operand" c.fn
  in
  let cube = eval_cube_operand env reg c.fn operand in
  let schema = Cube.schema cube in
  let items = Option.value ~default:[] c.group_by in
  let projections =
    List.map
      (fun (item : Ast.dim_item) ->
        let idx = Schema.dim_index_exn schema item.src in
        let fn = Option.map Ops.Dim_fn.find_exn item.fn in
        (idx, fn))
      items
  in
  let result_dims =
    List.map
      (fun (item : Ast.dim_item) ->
        let name = Ast.dim_item_result_name item in
        let domain =
          match item.fn with
          | Some fn -> Ops.Dim_fn.result_domain (Ops.Dim_fn.find_exn fn)
          | None -> (
              match Schema.dim_domain schema item.src with
              | Some d -> d
              | None -> Errors.failf "no dimension %s" item.src)
        in
        (name, domain))
      items
  in
  (* Bags are accumulated in sorted key order so that order-sensitive
     aggregates (first/last) are deterministic. *)
  let groups : float list ref Tuple.Table.t = Tuple.Table.create 64 in
  let order = ref [] in
  List.iter
    (fun (k, v) ->
      match Value.to_float v with
      | None -> ()
      | Some f ->
          let group_key =
            Tuple.of_list
              (List.map
                 (fun (idx, fn) ->
                   let raw = Tuple.get k idx in
                   match fn with
                   | None -> raw
                   | Some dim_fn -> (
                       match Ops.Dim_fn.apply dim_fn raw with
                       | Some v' -> v'
                       | None ->
                           Errors.failf
                             "dimension function %s undefined on %s"
                             dim_fn.Ops.Dim_fn.name (Value.to_string raw)))
                 projections)
          in
          (match Tuple.Table.find_opt groups group_key with
          | Some bag -> bag := f :: !bag
          | None ->
              Tuple.Table.replace groups group_key (ref [ f ]);
              order := group_key :: !order))
    (Cube.to_alist cube);
  let out = Cube.create (anon_schema result_dims) in
  List.iter
    (fun key ->
      let bag = List.rev !(Tuple.Table.find groups key) in
      Cube.set out key (Value.of_float (Stats.Aggregate.apply aggr bag)))
    (List.rev !order);
  V_cube out

and eval_scalar env reg (c : Ast.call) s =
  match Ast.split_call_args c with
  | Error msg -> Errors.fail ~pos:c.pos msg
  | Ok (params, operand) -> (
      match operand with
      | None -> (
          match List.rev params with
          | x :: rest -> (
              match Ops.Scalar_fn.apply s ~params:(List.rev rest) x with
              | Some r -> V_scalar r
              | None ->
                  Errors.failf ~pos:c.pos "%s undefined on constant arguments"
                    c.fn)
          | [] -> Errors.failf ~pos:c.pos "%s is missing its operand" c.fn)
      | Some e -> (
          match eval env reg e with
          | V_scalar x -> (
              match Ops.Scalar_fn.apply s ~params x with
              | Some r -> V_scalar r
              | None ->
                  Errors.failf ~pos:c.pos "%s undefined on constant arguments"
                    c.fn)
          | V_cube cube ->
              V_cube
                (Cube.map_measure (Ops.Scalar_fn.apply_value s ~params) cube)))

and eval_blackbox env reg (c : Ast.call) b =
  match Ast.split_call_args c with
  | Error msg -> Errors.fail ~pos:c.pos msg
  | Ok (params, operand) -> (
      match operand with
      | None -> Errors.failf ~pos:c.pos "%s is missing its cube operand" c.fn
      | Some e -> (
          let cube = eval_cube_operand env reg c.fn e in
          match Ops.Blackbox.apply_cube b ~params cube with
          | Ok out -> V_cube out
          | Error msg -> Errors.fail ~pos:c.pos msg))

let store env reg (s : Ast.stmt) result =
  let schema = Typecheck.Env.schema_exn env s.lhs in
  let cube =
    match result with
    | V_scalar f ->
        let c = Cube.create schema in
        Cube.set c (Tuple.of_list []) (Value.of_float f);
        c
    | V_cube c ->
        let target_dims =
          Array.to_list schema.Schema.dims
          |> List.map (fun d -> (d.Schema.dim_name, d.Schema.dim_domain))
        in
        Cube.with_schema schema (align_dims target_dims c)
  in
  Registry.add reg Registry.Derived cube

let run_stmt env reg s =
  Errors.protect (fun () -> store env reg s (eval env reg s.rhs))

let run (checked : Typecheck.checked) input =
  let reg = Registry.of_sources input (Typecheck.elementary_schemas checked) in
  let rec loop = function
    | [] -> Ok reg
    | s :: rest -> (
        match run_stmt checked.Typecheck.env reg s with
        | Ok () -> loop rest
        | Error e ->
            Error
              {
                e with
                Errors.msg =
                  Printf.sprintf "in statement %s: %s" s.Ast.lhs e.Errors.msg;
              })
  in
  loop checked.Typecheck.statements
