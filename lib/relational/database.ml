open Matrix

type t = (string, Table.t) Hashtbl.t

let create () = Hashtbl.create 32

let create_table t ~name ~columns =
  let table = Table.create ~name ~columns in
  Hashtbl.replace t name table;
  table

let add_table t table = Hashtbl.replace t (Table.name table) table
let find t name = Hashtbl.find_opt t name

let load_cube ?schema t cube = add_table t (Table.of_cube ?schema cube)

let to_registry t ~schemas ~elementary =
  let reg = Registry.create () in
  List.iter
    (fun schema ->
      let name = schema.Schema.name in
      let kind =
        if List.mem name elementary then Registry.Elementary
        else Registry.Derived
      in
      let cube =
        match find t name with
        | Some table -> Table.to_cube schema table
        | None -> Cube.create schema
      in
      Registry.add reg kind cube)
    schemas;
  reg
