type fit = { slope : float; intercept : float }

let wls ~weights x y =
  let n = Array.length x in
  if n <> Array.length y || n <> Array.length weights then
    invalid_arg "Regression.wls: length mismatch";
  if n = 0 then invalid_arg "Regression.wls: empty input";
  let sw = ref 0. and swx = ref 0. and swy = ref 0. in
  for i = 0 to n - 1 do
    sw := !sw +. weights.(i);
    swx := !swx +. (weights.(i) *. x.(i));
    swy := !swy +. (weights.(i) *. y.(i))
  done;
  if !sw <= 0. then invalid_arg "Regression.wls: weights sum to zero";
  let mx = !swx /. !sw and my = !swy /. !sw in
  let sxx = ref 0. and sxy = ref 0. in
  for i = 0 to n - 1 do
    let dx = x.(i) -. mx in
    sxx := !sxx +. (weights.(i) *. dx *. dx);
    sxy := !sxy +. (weights.(i) *. dx *. (y.(i) -. my))
  done;
  if !sxx = 0. then { slope = 0.; intercept = my }
  else
    let slope = !sxy /. !sxx in
    { slope; intercept = my -. (slope *. mx) }

let ols x y = wls ~weights:(Array.make (Array.length x) 1.) x y
let predict f x = (f.slope *. x) +. f.intercept

let fitted_line values =
  let x = Array.init (Array.length values) float_of_int in
  let f = ols x values in
  Array.map (predict f) x
