open Matrix

(* Rows live in a growable array: [rows.(0 .. count-1)] in insertion
   order.  A table loaded from a cube holds the cube's column view
   instead, and decodes its rows into [rows] only when a reader asks
   for whole rows.  [cols] caches the per-column dictionary encodings
   the executor's vectorized paths read (for a loaded table's key
   columns, the view's dictionaries and codes); it is dropped on any
   mutation and rebuilt lazily. *)
type t = {
  name : string;
  columns : string list;
  width : int;
  mutable rows : Value.t array array;
  mutable count : int;
  mutable view : Cube.view option;
  cols : (int, Dict.t * int array) Hashtbl.t;
}

let create ~name ~columns =
  {
    name;
    columns;
    width = List.length columns;
    rows = [||];
    count = 0;
    view = None;
    cols = Hashtbl.create 4;
  }

let name t = t.name
let width t = t.width
let row_count t = t.count

let value t r i =
  match t.view with
  | Some v when i < Array.length v.Cube.dicts -> Cube.key_value v i r
  | Some v -> v.Cube.measures.(r)
  | None -> t.rows.(r).(i)

(* A loaded table's rows, decoded on first demand.  Otherwise trimmed
   to [count], so the array handed out is exactly the rows; the next
   insert grows it again. *)
let rows_array t =
  (match t.view with
  | Some v when Array.length t.rows < t.count ->
      t.rows <- Array.init t.count (Cube.row v);
      Obs.count ~n:t.count "table.rows_decoded"
  | _ -> if Array.length t.rows <> t.count then t.rows <- Array.sub t.rows 0 t.count);
  t.rows

let rows t = Array.to_list (rows_array t)

let insert t row =
  if Array.length row <> t.width then
    invalid_arg
      (Printf.sprintf "Table.insert: row of width %d into %s(%s)"
         (Array.length row) t.name
         (String.concat ", " t.columns));
  if Option.is_some t.view then begin
    ignore (rows_array t : Value.t array array);
    t.view <- None
  end;
  if t.count = Array.length t.rows then begin
    let rows = Array.make (max 16 (2 * t.count)) [||] in
    Array.blit t.rows 0 rows 0 t.count;
    t.rows <- rows
  end;
  t.rows.(t.count) <- row;
  t.count <- t.count + 1;
  Hashtbl.reset t.cols

let column_codes t i =
  match Hashtbl.find_opt t.cols i with
  | Some c -> c
  | None ->
      let c =
        match t.view with
        | Some v when i < Array.length v.Cube.dicts ->
            (v.Cube.dicts.(i), Array.init t.count (Cube.code v i))
        | _ ->
            let dict = Dict.create () in
            (dict, Array.init t.count (fun r -> Dict.encode dict (value t r i)))
      in
      Hashtbl.replace t.cols i c;
      c

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
  let v = Cube.view cube in
  t.view <- Some v;
  t.count <- v.Cube.size;
  t

let to_cube schema t =
  let n = Schema.arity schema in
  let cube = Cube.create schema in
  Array.iter
    (fun row -> Cube.add_strict cube (Tuple.of_array (Array.sub row 0 n)) row.(n))
    (rows_array t);
  cube
