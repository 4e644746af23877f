type t =
  | Sum
  | Avg
  | Min
  | Max
  | Count
  | Median
  | Stddev
  | Variance
  | Product
  | First
  | Last

let all =
  [ Sum; Avg; Min; Max; Count; Median; Stddev; Variance; Product; First; Last ]

let to_string = function
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"
  | Count -> "count"
  | Median -> "median"
  | Stddev -> "stddev"
  | Variance -> "variance"
  | Product -> "product"
  | First -> "first"
  | Last -> "last"

let of_string s =
  match String.lowercase_ascii s with
  | "sum" -> Some Sum
  | "avg" | "mean" | "average" -> Some Avg
  | "min" -> Some Min
  | "max" -> Some Max
  | "count" -> Some Count
  | "median" -> Some Median
  | "stddev" | "sd" -> Some Stddev
  | "variance" | "var" -> Some Variance
  | "product" | "prod" -> Some Product
  | "first" -> Some First
  | "last" -> Some Last
  | _ -> None

(* [apply] over an array bag in array order: [apply t bag] is
   [apply_array t (Array.of_list bag)], so the same values in the same
   order give bit-identical results on either entry point.  The
   vectorized engines accumulate group bags as arrays and call this. *)
let apply_array t a =
  match Array.length a with
  | 0 -> invalid_arg "Aggregate.apply: empty bag"
  | n -> (
      match t with
      | Sum -> Descriptive.sum a
      | Avg -> Descriptive.mean a
      | Min -> Descriptive.min a
      | Max -> Descriptive.max a
      | Count -> float_of_int n
      | Median -> Descriptive.median a
      | Stddev -> Descriptive.stddev a
      | Variance -> Descriptive.variance a
      | Product -> Descriptive.product a
      | First -> a.(0)
      | Last -> a.(n - 1))

let apply_slice t a ~off ~len =
  if off = 0 && len = Array.length a then apply_array t a
  else apply_array t (Array.sub a off len)

let apply t bag = apply_array t (Array.of_list bag)
