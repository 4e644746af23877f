open Matrix

let job_of_program checked =
  Result.bind (Mappings.Generate.of_checked checked)
    (fun (g : Mappings.Generate.generated) ->
      let mapping = g.Mappings.Generate.mapping in
      match Etl_gen.job_of_mapping mapping with
      | Error msg -> Error (Exl.Errors.make ("ETL target: " ^ msg))
      | Ok job -> Ok (job, mapping))

let run_program ?batch_size checked registry =
  Result.bind (job_of_program checked) (fun (job, mapping) ->
      let storage = Registry.create () in
      List.iter
        (fun schema ->
          let cube =
            match Registry.find registry schema.Schema.name with
            | Some c -> Cube.with_schema schema c
            | None -> Cube.create schema
          in
          Registry.add storage Registry.Elementary cube)
        mapping.Mappings.Mapping.source;
      let schema_lookup = Mappings.Mapping.target_schema mapping in
      match Engine.run_job ?batch_size ~storage ~schema_lookup job with
      | Error msg -> Error (Exl.Errors.make ("ETL target: " ^ msg))
      | Ok _stats -> Ok storage)

let kettle_catalog_of_program checked =
  Result.map (fun (job, _) -> Kettle.job_to_xml job) (job_of_program checked)
