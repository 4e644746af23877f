open Matrix

(* Rows live in a growable array: [rows.(0 .. count-1)] in insertion
   order.  [cols] caches the per-column dictionary encodings the
   executor's vectorized paths read; it is dropped on any mutation and
   rebuilt lazily. *)
type t = {
  name : string;
  columns : string list;
  width : int;
  mutable rows : Value.t array array;
  mutable count : int;
  cols : (int, Columnar.Dict.t * int array) Hashtbl.t;
}

let create ~name ~columns =
  {
    name;
    columns;
    width = List.length columns;
    rows = [||];
    count = 0;
    cols = Hashtbl.create 4;
  }

let name t = t.name
let columns t = t.columns
let width t = t.width
let row_count t = t.count

let insert t row =
  if Array.length row <> t.width then
    invalid_arg
      (Printf.sprintf "Table.insert: row of width %d into %s(%s)"
         (Array.length row) t.name
         (String.concat ", " t.columns));
  if t.count = Array.length t.rows then begin
    let rows = Array.make (max 16 (2 * t.count)) [||] in
    Array.blit t.rows 0 rows 0 t.count;
    t.rows <- rows
  end;
  t.rows.(t.count) <- row;
  t.count <- t.count + 1;
  Hashtbl.reset t.cols

(* Trimmed to [count] on demand, so the array handed out is exactly the
   rows; the next insert grows it again. *)
let rows_array t =
  if Array.length t.rows <> t.count then t.rows <- Array.sub t.rows 0 t.count;
  t.rows

let rows t = Array.to_list (rows_array t)

let column_codes t i =
  match Hashtbl.find_opt t.cols i with
  | Some c -> c
  | None ->
      let a = rows_array t in
      let dict = Columnar.Dict.create () in
      let codes =
        Array.map (fun row -> Columnar.Dict.encode dict row.(i)) a
      in
      Hashtbl.replace t.cols i (dict, codes);
      (dict, codes)

let of_cube ?schema cube =
  let schema = Option.value schema ~default:(Cube.schema cube) in
  if Schema.arity schema <> Schema.arity (Cube.schema cube) then
    invalid_arg
      (Printf.sprintf "Table.of_cube: %s has arity %d, schema %s needs %d"
         (Cube.name cube)
         (Schema.arity (Cube.schema cube))
         schema.Schema.name (Schema.arity schema));
  let t =
    create ~name:schema.Schema.name
      ~columns:(Schema.dim_names schema @ [ schema.Schema.measure_name ])
  in
  let rows = Array.make (Cube.cardinality cube) [||] in
  let i = ref 0 in
  Cube.iter
    (fun k v ->
      rows.(!i) <- Tuple.append k v;
      incr i)
    cube;
  t.rows <- rows;
  t.count <- !i;
  t

let to_cube schema t =
  let n = Schema.arity schema in
  let cube = Cube.create schema in
  for r = 0 to t.count - 1 do
    let row = t.rows.(r) in
    Cube.add_strict cube (Tuple.of_array (Array.sub row 0 n)) row.(n)
  done;
  cube

let pp ppf t =
  Format.fprintf ppf "@[<v2>%s(%s) [%d rows]" t.name
    (String.concat ", " t.columns)
    t.count;
  for r = 0 to t.count - 1 do
    Format.fprintf ppf "@,%s"
      (String.concat " | "
         (List.map Value.to_string (Array.to_list t.rows.(r))))
  done;
  Format.fprintf ppf "@]"
