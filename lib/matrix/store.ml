let manifest_name = "manifest"

(* [Domain.to_string] spells a day-frequency period "day", which
   [Domain.of_string] reads back as [Date]: the manifest keeps the two
   apart. *)
let day_period = "period-day"

let domain_to_string = function
  | Domain.Period (Some Calendar.Day) -> day_period
  | d -> Domain.to_string d

let domain_of_string s =
  if s = day_period then Some (Domain.Period (Some Calendar.Day))
  else Domain.of_string s

let manifest_of_registry registry =
  let line name =
    let cube = Registry.find_exn registry name in
    let schema = Cube.schema cube in
    let kind =
      Registry.kind_to_string
        (Option.value ~default:Registry.Derived (Registry.kind_of registry name))
    in
    let dims =
      String.concat ","
        (Array.to_list
           (Array.map
              (fun d ->
                Printf.sprintf "%s:%s" d.Schema.dim_name
                  (domain_to_string d.Schema.dim_domain))
              schema.Schema.dims))
    in
    Printf.sprintf "%s|%s|%s|%s:%s" name kind dims schema.Schema.measure_name
      (domain_to_string schema.Schema.measure_domain)
  in
  String.concat "\n" (List.map line (Registry.names registry)) ^ "\n"

let parse_typed field what =
  match String.index_opt field ':' with
  | Some i ->
      let name = String.sub field 0 i in
      let dom = String.sub field (i + 1) (String.length field - i - 1) in
      (match domain_of_string dom with
      | Some d -> Ok (name, d)
      | None -> Error (Printf.sprintf "unknown domain %s in %s" dom what))
  | None -> Error (Printf.sprintf "malformed %s field %s" what field)

let registry_schemas_of_manifest text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match String.split_on_char '|' line with
        | [ name; kind_text; dims_text; measure_text ] -> (
            let kind =
              match kind_text with
              | "elementary" -> Ok Registry.Elementary
              | "derived" -> Ok Registry.Derived
              | other -> Error ("unknown kind " ^ other)
            in
            match kind with
            | Error msg -> Error msg
            | Ok kind -> (
                let dim_fields =
                  if dims_text = "" then []
                  else String.split_on_char ',' dims_text
                in
                let rec parse_dims acc = function
                  | [] -> Ok (List.rev acc)
                  | f :: fs -> (
                      match parse_typed f "dimension" with
                      | Ok d -> parse_dims (d :: acc) fs
                      | Error _ as e -> e)
                in
                match parse_dims [] dim_fields with
                | Error msg -> Error msg
                | Ok dims -> (
                    match parse_typed measure_text "measure" with
                    | Error msg -> Error msg
                    | Ok (measure_name, measure_domain) ->
                        let schema =
                          Schema.make ~measure_name ~measure_domain ~name ~dims ()
                        in
                        loop ((schema, kind) :: acc) rest)))
        | _ -> Error ("malformed manifest line: " ^ line))
  in
  loop [] lines

(* [close_out] on success: a failed final flush (a full disk) raises
   [Sys_error] there, which [close_out_noerr] would swallow. *)
let write_file path write =
  let oc = open_out path in
  match write oc with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save ~dir registry =
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    write_file (Filename.concat dir manifest_name) (fun oc ->
        output_string oc (manifest_of_registry registry));
    List.iter
      (fun name ->
        write_file (Filename.concat dir (name ^ ".csv")) (fun oc ->
            Csv.cube_to_channel_unsorted oc (Registry.find_exn registry name)))
      (Registry.names registry);
    Ok ()
  with Sys_error msg -> Error msg

let load ~dir =
  try
    let manifest = read_file (Filename.concat dir manifest_name) in
    match registry_schemas_of_manifest manifest with
    | Error msg -> Error msg
    | Ok entries ->
        let registry = Registry.create () in
        let rec loop = function
          | [] -> Ok registry
          | (schema, kind) :: rest -> (
              let path =
                Filename.concat dir (schema.Schema.name ^ ".csv")
              in
              match Csv.cube_of_string schema (read_file path) with
              | Ok cube ->
                  Registry.add registry kind cube;
                  loop rest
              | Error msg ->
                  Error (Printf.sprintf "%s: %s" path msg))
        in
        loop entries
  with Sys_error msg -> Error msg
