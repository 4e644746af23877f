let check name a =
  if Array.length a = 0 then invalid_arg ("Descriptive." ^ name ^ ": empty input")

let sum a = Array.fold_left ( +. ) 0. a
let product a = Array.fold_left ( *. ) 1. a

let mean a =
  check "mean" a;
  sum a /. float_of_int (Array.length a)

let variance a =
  check "variance" a;
  let m = mean a in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. a
  /. float_of_int (Array.length a)

let stddev a = sqrt (variance a)

let min a =
  check "min" a;
  Array.fold_left Float.min a.(0) a

let max a =
  check "max" a;
  Array.fold_left Float.max a.(0) a

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let quantile q a =
  check "quantile" a;
  if q < 0. || q > 1. then invalid_arg "Descriptive.quantile: q not in [0,1]";
  let b = sorted a in
  let n = Array.length b in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then b.(lo)
  else
    let w = pos -. float_of_int lo in
    ((1. -. w) *. b.(lo)) +. (w *. b.(hi))

let median a = quantile 0.5 a

let autocorrelation ~lag a =
  let n = Array.length a in
  if lag < 0 || lag >= n then 0.
  else
    let m = mean a in
    let denom = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. a in
    if denom = 0. then 0.
    else begin
      let num = ref 0. in
      for i = 0 to n - 1 - lag do
        num := !num +. ((a.(i) -. m) *. (a.(i + lag) -. m))
      done;
      !num /. denom
    end
