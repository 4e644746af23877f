let tricube u =
  let au = Float.abs u in
  if au >= 1. then 0. else (1. -. (au ** 3.)) ** 3.

(* For equally spaced positions the [span] nearest neighbours of [i]
   form a contiguous window, so the whole smooth runs in O(n * span)
   instead of sorting distances per point. *)
let smooth ~span ys =
  let n = Array.length ys in
  if n = 0 then [||]
  else begin
    let span = Stdlib.max 2 (Stdlib.min span n) in
    Array.init n (fun i ->
        let lo = Stdlib.max 0 (Stdlib.min (n - span) (i - ((span - 1) / 2))) in
        let hi = lo + span - 1 in
        let dmax =
          float_of_int (Stdlib.max (abs (i - lo)) (abs (hi - i)))
        in
        let lx = Array.init span (fun k -> float_of_int (lo + k)) in
        let ly = Array.sub ys lo span in
        let weights =
          if dmax = 0. then Array.make span 1.
          else Array.map (fun x -> tricube ((x -. float_of_int i) /. dmax)) lx
        in
        let weights =
          if Array.for_all (fun w -> w = 0.) weights then Array.make span 1.
          else weights
        in
        Regression.predict (Regression.wls ~weights lx ly) (float_of_int i))
  end
