open Matrix

type t = { names : string list; cols : (string, Value.t array) Hashtbl.t; len : int }

let create pairs =
  let seen = Hashtbl.create 8 in
  let len =
    match pairs with [] -> 0 | (_, c) :: _ -> Array.length c
  in
  let cols = Hashtbl.create 8 in
  List.iter
    (fun (name, col) ->
      if Hashtbl.mem seen name then
        invalid_arg ("Frame.create: duplicate column " ^ name);
      Hashtbl.add seen name ();
      if Array.length col <> len then
        invalid_arg ("Frame.create: ragged column " ^ name);
      Hashtbl.replace cols name col)
    pairs;
  { names = List.map fst pairs; cols; len }

let columns t = t.names
let length t = t.len

let column t name =
  match Hashtbl.find_opt t.cols name with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Frame.column: no column %s (have %s)" name
           (String.concat ", " t.names))

let has_column t name = Hashtbl.mem t.cols name

let row t i = Array.of_list (List.map (fun n -> (column t n).(i)) t.names)

(* Rows in key order ({!Cube.to_alist}'s), read off the version's
   column view. *)
let of_cube cube =
  let schema = Cube.schema cube in
  let v = Cube.view cube in
  let order = Cube.key_order v in
  let cols =
    List.mapi
      (fun di name -> (name, Array.map (fun r -> Cube.key_value v di r) order))
      (Schema.dim_names schema)
  in
  let measure = Array.map (fun r -> v.Cube.measures.(r)) order in
  create (cols @ [ (schema.Schema.measure_name, measure) ])

let to_cube schema t =
  let cube = Cube.create schema in
  let dim_cols = List.map (column t) (Schema.dim_names schema) in
  let measure_col = column t schema.Schema.measure_name in
  for i = 0 to t.len - 1 do
    let key = Tuple.of_list (List.map (fun c -> c.(i)) dim_cols) in
    if not (Value.is_null measure_col.(i)) then
      Cube.add_strict cube key measure_col.(i)
  done;
  cube

let select t pairs =
  create (List.map (fun (src, dst) -> (dst, Array.copy (column t src))) pairs)

let add_column t name col =
  if Array.length col <> t.len then
    invalid_arg ("Frame.add_column: ragged column " ^ name);
  let names = if has_column t name then t.names else t.names @ [ name ] in
  let cols = Hashtbl.copy t.cols in
  Hashtbl.replace cols name col;
  { names; cols; len = t.len }

let filter_rows t keep =
  let idx = ref [] in
  for i = t.len - 1 downto 0 do
    if keep i then idx := i :: !idx
  done;
  let idx = Array.of_list !idx in
  create
    (List.map
       (fun n ->
         let src = column t n in
         (n, Array.map (fun i -> src.(i)) idx))
       t.names)

let sort_rows t =
  let rows = Array.init t.len (row t) in
  Array.sort (fun a b -> Tuple.compare (Tuple.of_array a) (Tuple.of_array b)) rows;
  create
    (List.mapi
       (fun ci n -> (n, Array.map (fun r -> r.(ci)) rows))
       t.names)
