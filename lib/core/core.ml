open Matrix

type program = Exl.Typecheck.checked

let err e = Exl.Errors.to_string e

let compile source = Result.map_error err (Exl.Program.load source)
let compile_exn source = Exl.Program.load_exn source

let mapping_of program =
  match Mappings.Generate.of_checked program with
  | Ok g -> Ok g.Mappings.Generate.mapping
  | Error e -> Error (err e)

let optimized m = (Analysis.Optimize.run m).Analysis.Optimize.optimized
let fused_mapping_of program = Result.map optimized (mapping_of program)

type backend = Reference | Chase | Sql | Vector_engine | Etl_engine

let backend_name = function
  | Reference -> "reference"
  | Chase -> "chase"
  | Sql -> "sql"
  | Vector_engine -> "vector"
  | Etl_engine -> "etl"

let all_backends = [ Reference; Chase; Sql; Vector_engine; Etl_engine ]

(* The dispatcher's own targets run the whole mapping: [etl_full] is
   the ETL target with every black box as a user-defined step. *)
let target = function
  | Reference -> None
  | Chase -> Some Engine.Target.chase
  | Sql -> Some Engine.Target.sql
  | Vector_engine -> Some Engine.Target.vector
  | Etl_engine -> Some Engine.Target.etl_full

let run ?(backend = Reference) program registry =
  match target backend with
  | None -> Result.map_error err (Exl.Interp.run program registry)
  | Some target ->
      Result.bind (mapping_of program) (fun mapping ->
          Result.map
            (fun computed ->
              (* the elementary cubes as the interpreter hands them
                 back: copies under the declared schemas *)
              let out =
                Registry.of_sources registry mapping.Mappings.Mapping.source
              in
              List.iter
                (fun name ->
                  Registry.add out Registry.Derived
                    (Registry.find_exn computed name))
                (Registry.derived_names computed);
              out)
            (target.Engine.Target.execute mapping registry))

let verify_all_backends ?(eps = 1e-7) program registry =
  match run ~backend:Reference program registry with
  | Error msg -> Error ("reference failed: " ^ msg)
  | Ok reference ->
      let names = Registry.names reference in
      let failures =
        List.filter_map
          (fun backend ->
            let name = backend_name backend in
            match run ~backend program registry with
            | Error msg -> Some (Printf.sprintf "%s failed: %s" name msg)
            | Ok got -> (
                match Registry.diff ~eps ~names reference got with
                | [] -> None
                | problems ->
                    Some
                      (String.concat "\n"
                         (List.map (fun p -> name ^ ": " ^ p) problems))))
          [ Chase; Sql; Vector_engine; Etl_engine ]
      in
      if failures = [] then Ok () else Error (String.concat "\n" failures)

let sql_of_mapping ?(fused = false) m =
  Relational.Sql_target.script_of_mapping (if fused then optimized m else m)

let ddl_of_mapping m = Ok (Relational.Sql_gen.ddl_of_mapping m)
let r_of_mapping m = Vector.Vector_target.r_script_of_mapping m
let matlab_of_mapping = Vector.Vector_target.matlab_script_of_mapping
let kettle_of_mapping = Etl.Etl_target.kettle_catalog_of_mapping
let tgds_of_mapping m = Ok (Mappings.Mapping.to_string m)

(* Each artifact of a program is that of its generated mapping. *)
let of_program artifact program = Result.bind (mapping_of program) artifact
let sql_of ?fused program = of_program (sql_of_mapping ?fused) program
let ddl_of program = of_program ddl_of_mapping program
let r_of program = of_program r_of_mapping program
let matlab_of program = of_program matlab_of_mapping program
let kettle_of program = of_program kettle_of_mapping program
let tgds_of program = of_program tgds_of_mapping program
