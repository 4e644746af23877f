open Matrix

type t =
  | Var of string
  | Const of Value.t
  | Shifted of t * int
  | Dim_fn of string * t
  | Scalar_fn of string * float list * t
  | Binapp of Ops.Binop.t * t * t
  | Neg of t
  | Coalesce of t * t

let vars t =
  let out = ref [] in
  let rec go = function
    | Var v -> if not (List.mem v !out) then out := v :: !out
    | Const _ -> ()
    | Shifted (t, _) | Dim_fn (_, t) | Scalar_fn (_, _, t) | Neg t -> go t
    | Binapp (_, a, b) | Coalesce (a, b) ->
        go a;
        go b
  in
  go t;
  List.rev !out

let is_var = function Var _ -> true | _ -> false

let rec substitute f = function
  | Var v as t -> ( match f v with Some t' -> t' | None -> t)
  | Const _ as t -> t
  | Shifted (t, k) -> Shifted (substitute f t, k)
  | Dim_fn (fn, t) -> Dim_fn (fn, substitute f t)
  | Scalar_fn (fn, ps, t) -> Scalar_fn (fn, ps, substitute f t)
  | Binapp (op, a, b) -> Binapp (op, substitute f a, substitute f b)
  | Neg t -> Neg (substitute f t)
  | Coalesce (a, b) -> Coalesce (substitute f a, substitute f b)

let rename ~prefix t = substitute (fun v -> Some (Var (prefix ^ v))) t

let shift_value amount = function
  | Value.Period p -> Some (Value.Period (Calendar.Period.shift p amount))
  | Value.Date d -> Some (Value.Date (Calendar.Date.add_days d amount))
  | Value.(Null | Bool _ | Int _ | Float _ | String _) -> None

let rec eval env = function
  | Var v -> env v
  | Const c -> Some c
  | Shifted (t, k) -> Option.bind (eval env t) (shift_value k)
  | Dim_fn (fn, t) ->
      Option.bind (eval env t) (fun v ->
          Option.bind (Ops.Dim_fn.find fn) (fun f -> Ops.Dim_fn.apply f v))
  | Scalar_fn (fn, params, t) ->
      Option.bind (eval env t) (fun v ->
          Option.bind (Ops.Scalar_fn.find fn) (fun f ->
              match Ops.Scalar_fn.apply_value f ~params v with
              | Value.Null -> None
              | r -> Some r))
  | Binapp (op, a, b) ->
      Option.bind (eval env a) (fun va ->
          Option.bind (eval env b) (fun vb ->
              (* temporal +/- integer is a shift: the printed form of
                 [Shifted] is plain arithmetic, so parsed-back terms
                 must evaluate identically *)
              match (op, va, vb) with
              | ( (Ops.Binop.Add | Ops.Binop.Sub),
                  (Value.Period _ | Value.Date _),
                  (Value.Int _ | Value.Float _) ) ->
                  let k = Option.value ~default:0 (Value.to_int vb) in
                  shift_value (if op = Ops.Binop.Sub then -k else k) va
              | Ops.Binop.Add, (Value.Int _ | Value.Float _), (Value.Period _ | Value.Date _)
                ->
                  let k = Option.value ~default:0 (Value.to_int va) in
                  shift_value k vb
              | _ -> (
                  match Ops.Binop.eval_value op va vb with
                  | Value.Null -> None
                  | r -> Some r)))
  | Neg t ->
      Option.bind (eval env t) (fun v ->
          Option.map (fun f -> Value.of_float (-.f)) (Value.to_float v))
  | Coalesce (a, b) -> (
      match eval env a with
      | Some v when not (Value.is_null v) -> Some v
      | _ -> eval env b)

let rec equal a b =
  match (a, b) with
  | Var x, Var y -> x = y
  | Const x, Const y -> Value.equal x y
  | Shifted (x, k), Shifted (y, l) -> k = l && equal x y
  | Dim_fn (f, x), Dim_fn (g, y) -> f = g && equal x y
  | Scalar_fn (f, ps, x), Scalar_fn (g, qs, y) -> f = g && ps = qs && equal x y
  | Binapp (o, a1, b1), Binapp (p, a2, b2) -> o = p && equal a1 a2 && equal b1 b2
  | Neg x, Neg y -> equal x y
  | Coalesce (a1, b1), Coalesce (a2, b2) -> equal a1 a2 && equal b1 b2
  | ( (Var _ | Const _ | Shifted _ | Dim_fn _ | Scalar_fn _ | Binapp _ | Neg _
      | Coalesce _),
      _ ) ->
      false

let prec = function
  | Var _ | Const _ | Dim_fn _ | Scalar_fn _ | Coalesce _ -> 10
  | Neg _ -> 4
  | Shifted _ -> 1
  | Binapp (op, _, _) -> Ops.Binop.precedence op

let rec to_str ctx t =
  let s =
    match t with
    | Var v -> v
    | Const (Value.String text) -> Printf.sprintf "%S" text
    | Const c -> Value.to_string c
    | Shifted (t, k) ->
        if k >= 0 then Printf.sprintf "%s + %d" (to_str 2 t) k
        else Printf.sprintf "%s - %d" (to_str 2 t) (-k)
    | Dim_fn (fn, t) -> Printf.sprintf "%s(%s)" fn (to_str 0 t)
    | Scalar_fn (fn, [], t) -> Printf.sprintf "%s(%s)" fn (to_str 0 t)
    | Scalar_fn (fn, ps, t) ->
        Printf.sprintf "%s(%s, %s)" fn
          (String.concat ", " (List.map (Printf.sprintf "%g") ps))
          (to_str 0 t)
    | Binapp (op, a, b) ->
        let p = Ops.Binop.precedence op in
        let lc, rc = if Ops.Binop.is_right_assoc op then (p + 1, p) else (p, p + 1) in
        Printf.sprintf "%s %s %s" (to_str lc a) (Ops.Binop.to_string op)
          (to_str rc b)
    | Neg t -> "-" ^ to_str 4 t
    | Coalesce (a, b) ->
        Printf.sprintf "coalesce(%s, %s)" (to_str 0 a) (to_str 0 b)
  in
  if prec t < ctx then "(" ^ s ^ ")" else s

let to_string t = to_str 0 t

let rec normalize_shift = function
  | Var _ as t -> t
  | Const _ as t -> t
  | Shifted (t, k) ->
      let base = normalize_shift t in
      if k >= 0 then Binapp (Ops.Binop.Add, base, Const (Value.Float (float_of_int k)))
      else Binapp (Ops.Binop.Sub, base, Const (Value.Float (float_of_int (-k))))
  | Dim_fn (f, t) -> Dim_fn (f, normalize_shift t)
  | Scalar_fn (f, ps, t) -> Scalar_fn (f, ps, normalize_shift t)
  | Binapp (op, a, b) -> Binapp (op, normalize_shift a, normalize_shift b)
  | Neg t -> Neg (normalize_shift t)
  | Coalesce (a, b) -> Coalesce (normalize_shift a, normalize_shift b)
