open Matrix

type artifact =
  | Sql_script of string
  | R_script of string
  | Matlab_script of string
  | Kettle_xml of string
  | Tgd_program of string

let artifact_kind = function
  | Sql_script _ -> "sql"
  | R_script _ -> "r"
  | Matlab_script _ -> "matlab"
  | Kettle_xml _ -> "kettle-xml"
  | Tgd_program _ -> "tgd"

type t = {
  name : string;
  supports : Mappings.Tgd.t -> bool;
  translate : Mappings.Mapping.t -> (artifact, string) result;
  execute : Mappings.Mapping.t -> Registry.t -> (Registry.t, string) result;
}

let sql =
  {
    name = "sql";
    supports = (fun _ -> true);
    translate =
      (fun mapping ->
        Result.map
          (fun s -> Sql_script s)
          (Relational.Sql_target.script_of_mapping mapping));
    execute = (fun mapping registry -> Relational.Sql_target.execute mapping registry);
  }

let vector_supports = function
  | Mappings.Tgd.Tuple_level { lhs; _ } -> List.length lhs <= 2
  | Mappings.Tgd.Aggregation _ | Mappings.Tgd.Table_fn _
  | Mappings.Tgd.Outer_combine _ ->
      true

let vector =
  {
    name = "vector";
    supports = vector_supports;
    translate =
      (fun mapping ->
        Result.map
          (fun s -> R_script s)
          (Vector.Vector_target.r_script_of_mapping mapping));
    execute = Vector.Vector_target.execute;
  }

let stl_family = [ "stl_t"; "stl_s"; "stl_r"; "deseason"; "trend_classical" ]

let etl_supports ~with_stl = function
  | Mappings.Tgd.Tuple_level { lhs; _ } -> List.length lhs <= 2
  | Mappings.Tgd.Aggregation _ | Mappings.Tgd.Outer_combine _ -> true
  | Mappings.Tgd.Table_fn { fn; _ } ->
      with_stl || not (List.mem (String.lowercase_ascii fn) stl_family)

let make_etl ~name ~with_stl =
  {
    name;
    supports = etl_supports ~with_stl;
    translate =
      (fun mapping ->
        Result.map
          (fun s -> Kettle_xml s)
          (Etl.Etl_target.kettle_catalog_of_mapping mapping));
    execute = (fun mapping registry -> Etl.Etl_target.execute mapping registry);
  }

let etl_no_stl = make_etl ~name:"etl" ~with_stl:false
let etl_full = make_etl ~name:"etl-full" ~with_stl:true

(* The chase target runs the sub-mapping natively with the semi-naive
   chase over relational instances — the reference engine of Section 4.
   Its deployable artifact is the mapping itself, rendered as a tgd
   program; execution is certified by the same machinery the test
   oracle uses, and (unlike the other targets) it emits chase-round
   spans into an installed Obs collector. *)
let chase =
  {
    name = "chase";
    supports = (fun _ -> true);
    translate =
      (fun mapping ->
        Ok
          (Tgd_program
             (String.concat "\n"
                (List.map Mappings.Tgd.to_string
                   mapping.Mappings.Mapping.t_tgds))));
    execute =
      (fun mapping registry ->
        Cube.guard (fun () ->
            let source =
              Exchange.Instance.of_registry
                (Registry.of_sources registry mapping.Mappings.Mapping.source)
            in
            Result.map
              (fun (instance, _stats) ->
                Exchange.Instance.to_registry instance
                  ~elementary:
                    (List.map
                       (fun s -> s.Schema.name)
                       mapping.Mappings.Mapping.source))
              (Exchange.Chase.run mapping source)));
  }

let builtins = [ sql; vector; etl_no_stl; chase ]
let find targets name = List.find_opt (fun t -> t.name = name) targets

(* The dispatcher's single door into a target engine: consult the fault
   plan first (an injected failure must cost nothing real), then run the
   backend, demoting its string errors — and any exception that escapes
   its own error paths — into structured failure kinds. *)
let guarded_execute ?faults ~cubes t mapping registry =
  match
    match faults with
    | Some plan -> Faults.check plan ~stage:Faults.Execute ~target:t.name ~cubes
    | None -> None
  with
  | Some kind -> Error kind
  | None -> (
      match t.execute mapping registry with
      | Ok _ as ok -> ok
      | Error msg -> Error (Faults.Execute_error msg)
      | exception e ->
          Error
            (Faults.Worker_crash
               (Printf.sprintf "%s [%s]: %s" t.name (String.concat ", " cubes)
                  (Printexc.to_string e))))
