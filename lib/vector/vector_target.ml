open Matrix

let execute mapping registry =
  Cube.guard @@ fun () ->
  match Script_gen.script_of_mapping mapping with
  | Error _ as e -> e
  | Ok script -> (
      let env = Script_interp.create_env () in
      let sources = Registry.of_sources registry mapping.Mappings.Mapping.source in
      List.iter
        (fun name ->
          Script_interp.bind env name (Frame.of_cube (Registry.find_exn sources name)))
        (Registry.names sources);
      let schema_lookup = Mappings.Mapping.target_schema mapping in
      match Script_interp.run ~schema_lookup env script with
      | Error _ as e -> e
      | Ok () ->
          let out = Registry.create () in
          List.iter
            (fun schema ->
              Registry.add out Registry.Derived
                (match Script_interp.frame env schema.Schema.name with
                | Some f -> Frame.to_cube schema f
                | None -> Cube.create schema))
            (Mappings.Mapping.derived mapping);
          Ok out)

let script_of mapping =
  Result.map_error
    (fun msg -> "vector target: " ^ msg)
    (Script_gen.script_of_mapping mapping)

let r_script_of_mapping ?(io = false) mapping =
  Result.map
    (fun script ->
      let body = R_print.script_to_string script in
      if not io then body
      else
        let sources =
          List.map
            (fun s ->
              Printf.sprintf "%s <- read.csv(\"%s.csv\")" s.Schema.name
                s.Schema.name)
            mapping.Mappings.Mapping.source
        in
        let finals =
          List.filter_map
            (fun s ->
              let name = s.Schema.name in
              if Exl.Normalize.is_temp name then None
              else
                Some
                  (Printf.sprintf "write.csv(%s, \"%s.csv\", row.names=FALSE)"
                     name name))
            (Mappings.Mapping.derived mapping)
        in
        String.concat "\n" sources ^ "\n" ^ body ^ String.concat "\n" finals
        ^ "\n")
    (script_of mapping)

let matlab_script_of_mapping mapping =
  Result.bind (script_of mapping) (fun script ->
      Result.map_error
        (fun msg -> "matlab printer: " ^ msg)
        (Matlab_print.script_to_string
           ~schemas:(Mappings.Mapping.target_schema mapping)
           script))
