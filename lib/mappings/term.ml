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

(* Writes [t] into [buf]; an operand binding looser than [ctx] gets
   its parentheses here, around what is written, not around a copy. *)
let rec write buf ctx t =
  let paren = prec t < ctx in
  if paren then Buffer.add_char buf '(';
  (match t with
  | Var v -> Buffer.add_string buf v
  | Const (Value.String text) ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (String.escaped text);
      Buffer.add_char buf '"'
  | Const c -> Buffer.add_string buf (Value.to_string c)
  | Shifted (t, k) ->
      write buf 2 t;
      Buffer.add_string buf (if k >= 0 then " + " else " - ");
      Buffer.add_string buf (string_of_int (abs k))
  | Dim_fn (fn, t) | Scalar_fn (fn, [], t) ->
      Buffer.add_string buf fn;
      Buffer.add_char buf '(';
      write buf 0 t;
      Buffer.add_char buf ')'
  | Scalar_fn (fn, ps, t) ->
      Buffer.add_string buf fn;
      Buffer.add_char buf '(';
      List.iter (fun p -> Printf.bprintf buf "%g, " p) ps;
      write buf 0 t;
      Buffer.add_char buf ')'
  | Binapp (op, a, b) ->
      let p = Ops.Binop.precedence op in
      let lc, rc = if Ops.Binop.is_right_assoc op then (p + 1, p) else (p, p + 1) in
      write buf lc a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Ops.Binop.to_string op);
      Buffer.add_char buf ' ';
      write buf rc b
  | Neg t ->
      Buffer.add_char buf '-';
      write buf 4 t
  | Coalesce (a, b) ->
      Buffer.add_string buf "coalesce(";
      write buf 0 a;
      Buffer.add_string buf ", ";
      write buf 0 b;
      Buffer.add_char buf ')');
  if paren then Buffer.add_char buf ')'

let to_buffer buf t = write buf 0 t

let to_string t =
  let buf = Buffer.create 32 in
  write buf 0 t;
  Buffer.contents buf

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
