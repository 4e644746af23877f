open Matrix

type t = { relation : string; dims : int }

let of_schema s = { relation = s.Schema.name; dims = Schema.arity s }

let to_string t =
  let vars = List.init t.dims (fun i -> Printf.sprintf "x%d" (i + 1)) in
  let args y = String.concat ", " (vars @ [ y ]) in
  Printf.sprintf "%s(%s) ∧ %s(%s) → (y1 = y2)" t.relation (args "y1")
    t.relation (args "y2")
