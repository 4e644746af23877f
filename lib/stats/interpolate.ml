let fill_linear a =
  let n = Array.length a in
  let finite = ref [] in
  Array.iteri (fun i x -> if not (Float.is_nan x) then finite := i :: !finite) a;
  match List.rev !finite with
  | [] -> Array.copy a
  | [ only ] -> Array.make n a.(only)
  | first :: _ as idxs ->
      let idxs = Array.of_list idxs in
      let m = Array.length idxs in
      let last = idxs.(m - 1) in
      let out = Array.copy a in
      let line i j x =
        (* Value at x of the line through finite points i and j. *)
        let xi = float_of_int i and xj = float_of_int j in
        a.(i) +. ((a.(j) -. a.(i)) /. (xj -. xi) *. (float_of_int x -. xi))
      in
      (* Leading run: extrapolate from the first two finite points. *)
      let second = idxs.(1) in
      for x = 0 to first - 1 do
        out.(x) <- line first second x
      done;
      (* Trailing run. *)
      let penult = idxs.(m - 2) in
      for x = last + 1 to n - 1 do
        out.(x) <- line penult last x
      done;
      (* Interior runs: interpolate between bracketing finite points. *)
      for k = 0 to m - 2 do
        let i = idxs.(k) and j = idxs.(k + 1) in
        for x = i + 1 to j - 1 do
          out.(x) <- line i j x
        done
      done;
      out
