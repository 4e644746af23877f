open Matrix

let execute ?batch_size mapping registry =
  Cube.guard @@ fun () ->
  match Etl_gen.job_of_mapping mapping with
  | Error _ as e -> e
  | Ok job -> (
      let storage = Registry.of_sources registry mapping.Mappings.Mapping.source in
      let schema_lookup = Mappings.Mapping.target_schema mapping in
      match Engine.run_job ?batch_size ~storage ~schema_lookup job with
      | Error _ as e -> e
      | Ok _stats -> Ok storage)

let kettle_catalog_of_mapping mapping =
  match Etl_gen.job_of_mapping mapping with
  | Error msg -> Error ("ETL target: " ^ msg)
  | Ok job -> Ok (Kettle.job_to_xml job)
