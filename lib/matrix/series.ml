type t = {
  schema : Schema.t;
  points : (Calendar.Period.t * float) array;
}

let period_of_value v =
  match v with
  | Value.Period p -> Some p
  | Value.Date d -> Some (Calendar.Period.day d)
  | Value.(Null | Bool _ | Int _ | Float _ | String _) -> None

let of_cube c =
  let schema = Cube.schema c in
  if Schema.arity schema <> 1 then
    invalid_arg
      (Printf.sprintf "Series.of_cube: %s has %d dimensions, expected 1"
         (Cube.name c) (Schema.arity schema));
  let points =
    Cube.fold
      (fun k v acc ->
        match (period_of_value (Tuple.get k 0), Value.to_float v) with
        | Some p, Some f -> (p, f) :: acc
        | None, _ ->
            invalid_arg
              (Printf.sprintf "Series.of_cube: %s has non-temporal key %s"
                 (Cube.name c) (Tuple.to_string k))
        | _, None ->
            invalid_arg
              (Printf.sprintf "Series.of_cube: %s has non-numeric measure at %s"
                 (Cube.name c) (Tuple.to_string k)))
      c []
    |> List.sort (fun (a, _) (b, _) -> Calendar.Period.compare a b)
    |> Array.of_list
  in
  { schema; points }

let to_cube s =
  let out = Cube.create s.schema in
  let temporal_value p =
    (* Preserve Date-typed dimensions: day periods map back to dates. *)
    match Schema.dim_domain s.schema (List.hd (Schema.dim_names s.schema)) with
    | Some Domain.Date -> Value.Date (Calendar.Period.start_date p)
    | _ -> Value.Period p
  in
  Array.iter
    (fun (p, f) ->
      Cube.set out (Tuple.of_list [ temporal_value p ]) (Value.of_float f))
    s.points;
  out

let length s = Array.length s.points
let periods s = Array.map fst s.points
let values s = Array.map snd s.points

let frequency s =
  if length s = 0 then None else Some (Calendar.Period.freq (fst s.points.(0)))

let is_contiguous s =
  let n = length s in
  let rec loop i =
    i >= n
    || Calendar.Period.equal
         (Calendar.Period.shift (fst s.points.(i - 1)) 1)
         (fst s.points.(i))
       && loop (i + 1)
  in
  n <= 1 || loop 1

let with_values s vals =
  if Array.length vals <> length s then
    invalid_arg "Series.with_values: length mismatch";
  { s with points = Array.mapi (fun i (p, _) -> (p, vals.(i))) s.points }

let make schema pts =
  let points =
    List.sort (fun (a, _) (b, _) -> Calendar.Period.compare a b) pts
    |> Array.of_list
  in
  { schema; points }

let pp ppf s =
  Format.fprintf ppf "@[<v2>series %s [%d points]" s.schema.Schema.name
    (length s);
  Array.iter
    (fun (p, v) ->
      Format.fprintf ppf "@,%s: %g" (Calendar.Period.to_string p) v)
    s.points;
  Format.fprintf ppf "@]"
