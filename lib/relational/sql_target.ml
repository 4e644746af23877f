open Matrix

let mapping_of ?(fused = false) checked =
  Result.map
    (fun (g : Mappings.Generate.generated) ->
      let m = g.Mappings.Generate.mapping in
      if fused then Mappings.Fuse.mapping m else m)
    (Mappings.Generate.of_checked checked)

let is_source mapping name =
  List.exists (fun s -> s.Schema.name = name) mapping.Mappings.Mapping.source

let execute ?views mapping registry =
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
        ~schemas:
          (List.filter
             (fun s -> not (is_source mapping s.Schema.name))
             mapping.Mappings.Mapping.target)
        ~elementary:[])
    (Executor.run_mapping ?views db mapping)

let run_program ?fused ?views checked registry =
  Result.bind (mapping_of ?fused checked) (fun mapping ->
      match Exl.Errors.protect (fun () -> execute ?views mapping registry) with
      | Error _ as e -> e
      | Ok (Error msg) -> Error (Exl.Errors.make ("SQL target: " ^ msg))
      | Ok (Ok result) ->
          (* The elementary cubes as the interpreter hands them back:
             copies under the declared schemas. *)
          List.iter
            (fun schema ->
              Registry.add result Registry.Elementary
                (match Registry.find registry schema.Schema.name with
                | Some c -> Cube.with_schema schema c
                | None -> Cube.create schema))
            mapping.Mappings.Mapping.source;
          Ok result)

let script_of_program ?fused ?(views = `None) checked =
  Result.bind (mapping_of ?fused checked) (fun mapping ->
      match Sql_gen.statements_of_mapping ~views mapping with
      | Error msg -> Error (Exl.Errors.make ("SQL generation: " ^ msg))
      | Ok statements -> Ok (Sql_print.statements_to_string statements))
