open Matrix

type t = Add | Sub | Mul | Div | Pow

let to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "^"

let eval t x y =
  let r =
    match t with
    | Add -> x +. y
    | Sub -> x -. y
    | Mul -> x *. y
    | Div -> if y = 0. then Float.nan else x /. y
    | Pow -> x ** y
  in
  if Float.is_nan r then None else Some r

let eval_value t a b =
  match (Value.to_float a, Value.to_float b) with
  | Some x, Some y -> (
      match eval t x y with Some r -> Value.of_float r | None -> Value.Null)
  | _ -> Value.Null

let precedence = function Add | Sub -> 1 | Mul | Div -> 2 | Pow -> 3
let is_right_assoc = function Pow -> true | Add | Sub | Mul | Div -> false
