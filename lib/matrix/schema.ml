type dimension = { dim_name : string; dim_domain : Domain.t }

type t = {
  name : string;
  dims : dimension array;
  measure_name : string;
  measure_domain : Domain.t;
}

let make ?(measure_name = "value") ?(measure_domain = Domain.Float) ~name ~dims
    () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (d, _) ->
      if Hashtbl.mem seen d then
        invalid_arg (Printf.sprintf "Schema.make: duplicate dimension %S in cube %s" d name);
      Hashtbl.add seen d ())
    dims;
  if Hashtbl.mem seen measure_name then
    invalid_arg
      (Printf.sprintf "Schema.make: measure %S clashes with a dimension of %s"
         measure_name name);
  {
    name;
    dims =
      Array.of_list
        (List.map (fun (dim_name, dim_domain) -> { dim_name; dim_domain }) dims);
    measure_name;
    measure_domain;
  }

let arity s = Array.length s.dims
let dim_names s = Array.to_list (Array.map (fun d -> d.dim_name) s.dims)

let dim_index s name =
  let rec loop i =
    if i >= Array.length s.dims then None
    else if s.dims.(i).dim_name = name then Some i
    else loop (i + 1)
  in
  loop 0

let dim_index_exn s name =
  match dim_index s name with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Schema.dim_index_exn: no dimension %S in cube %s" name
           s.name)

let dim_domain s name =
  Option.map (fun i -> s.dims.(i).dim_domain) (dim_index s name)

let time_dims s =
  Array.to_list s.dims
  |> List.filter (fun d -> Domain.is_temporal d.dim_domain)
  |> List.map (fun d -> d.dim_name)

(* A loop, not [Array.for_all] over an index array: it runs once per
   fact loaded and allocates nothing. *)
let compatible_tuple s t =
  let n = arity s in
  Tuple.arity t = n
  &&
  let i = ref 0 in
  while !i < n && Domain.member (Tuple.get t !i) s.dims.(!i).dim_domain do
    incr i
  done;
  !i = n

let equal a b =
  a.name = b.name
  && Array.length a.dims = Array.length b.dims
  && Array.for_all2
       (fun da db ->
         da.dim_name = db.dim_name && Domain.equal da.dim_domain db.dim_domain)
       a.dims b.dims
  && a.measure_name = b.measure_name
  && Domain.equal a.measure_domain b.measure_domain

let to_string s =
  Printf.sprintf "%s(%s): %s" s.name
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun d ->
               Printf.sprintf "%s: %s" d.dim_name (Domain.to_string d.dim_domain))
             s.dims)))
    (Domain.to_string s.measure_domain)
