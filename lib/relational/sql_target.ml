open Matrix

let execute ?views mapping registry =
  Cube.guard @@ fun () ->
  let db = Database.create () in
  List.iter
    (fun schema ->
      Database.load_cube ~schema db
        (match Registry.find registry schema.Schema.name with
        | Some c -> c
        | None -> Cube.create schema))
    mapping.Mappings.Mapping.source;
  Result.map
    (fun _rows ->
      Database.to_registry db
        ~schemas:(Mappings.Mapping.derived mapping) ~elementary:[])
    (Executor.run_mapping ?views db mapping)

let script_of_mapping ?(views = `None) mapping =
  match Sql_gen.statements_of_mapping ~views mapping with
  | Error msg -> Error ("SQL generation: " ^ msg)
  | Ok statements -> Ok (Sql_print.statements_to_string statements)
