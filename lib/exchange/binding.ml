open Matrix
module Term = Mappings.Term

(* A variable binding; small, so an association list with functional
   extension keeps backtracking trivial. *)
type t = (string * Value.t) list

let empty : t = []
let rec lookup (b : t) v =
  match b with
  | [] -> None
  | (k, value) :: rest -> if String.equal k v then Some value else lookup rest v

let rec is_bound (b : t) v =
  match b with
  | [] -> false
  | (k, _) :: rest -> String.equal k v || is_bound rest v
let bind (b : t) v value : t = (v, value) :: b
let term_value b term = Term.eval (lookup b) term

let rec term_fully_bound b = function
  | Term.Var v -> is_bound b v
  | Term.Const _ -> true
  | Term.Shifted (t, _)
  | Term.Dim_fn (_, t)
  | Term.Scalar_fn (_, _, t)
  | Term.Neg t ->
      term_fully_bound b t
  | Term.Binapp (_, t, u) | Term.Coalesce (t, u) ->
      term_fully_bound b t && term_fully_bound b u
