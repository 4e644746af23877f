let load_all source =
  match Parser.parse source with
  | Error e -> Error [ e ]
  | Ok ast -> Typecheck.check ast

let load source = Result.map_error Errors.first (load_all source)

let run_source source registry =
  Result.bind (load source) (fun checked -> Interp.run checked registry)

let load_exn source =
  match load source with
  | Ok c -> c
  | Error e -> invalid_arg ("EXL: " ^ Errors.to_string e)
