(* Lint driver: runs every analysis layer over an EXL source and
   produces one diagnostic report.

   Pipeline: parse (E001) → typecheck, accumulating (E00x) → EXL lints
   (W10x) → mapping generation → mapping checks (E20x/W205).  Later
   layers only run when earlier ones succeed — lints on an ill-typed
   program would be noise. *)

type report = {
  diagnostics : Diagnostic.t list;
  checked : Exl.Typecheck.checked option;
  mapping : Mappings.Mapping.t option;
  optimizer : Optimize.report option;
}

let source_diagnostics source =
  match Exl.Parser.parse source with
  | Error e ->
      {
        diagnostics = [ Diagnostic.of_error ~default_code:"E001" e ];
        checked = None;
        mapping = None;
        optimizer = None;
      }
  | Ok ast -> (
      match Exl.Typecheck.check ast with
      | Error errs ->
          {
            diagnostics = List.map Diagnostic.of_error errs;
            checked = None;
            mapping = None;
            optimizer = None;
          }
      | Ok checked ->
          let exl_findings = Exl_lints.run checked in
          let mapping, map_findings =
            match Mappings.Generate.of_checked checked with
            | Ok g ->
                ( Some g.Mappings.Generate.mapping,
                  Map_lints.run g.Mappings.Generate.mapping )
            | Error e -> (None, [ Diagnostic.of_error e ])
          in
          let findings = exl_findings @ map_findings in
          (* Surface what the optimizer would do as I3xx notes — only on
             a clean mapping; chasing an inconsistent one is noise.
             I306 (egd discharge) is omitted here: it fires on nearly
             every tgd, so it only appears in [exlc optimize] reports. *)
          let optimizer =
            match mapping with
            | Some m when not (List.exists Diagnostic.is_error findings) ->
                Some (Optimize.run m)
            | _ -> None
          in
          let opt_findings =
            match optimizer with
            | Some opt ->
                List.filter
                  (fun d -> d.Diagnostic.code <> "I306")
                  (Optimize.diagnostics opt)
            | None -> []
          in
          {
            diagnostics = Diagnostic.sort (findings @ opt_findings);
            checked = Some checked;
            mapping;
            optimizer;
          })

let filter ~suppress report =
  (* warnings and infos can be suppressed; errors always survive *)
  {
    report with
    diagnostics =
      List.filter
        (fun d ->
          Diagnostic.is_error d || not (List.mem d.Diagnostic.code suppress))
        report.diagnostics;
  }

(* Infos (I3xx optimizer notes) never affect the exit code, even under
   [--deny-warnings]. *)
let exit_code ~deny_warnings report =
  if List.exists Diagnostic.is_error report.diagnostics then 1
  else if deny_warnings && List.exists Diagnostic.is_warning report.diagnostics
  then 1
  else 0

let render_text ?source report =
  let render =
    match source with
    | Some source -> Diagnostic.to_string_with_source ~source
    | None -> Diagnostic.to_string
  in
  let body = List.map render report.diagnostics in
  let errors = List.length (List.filter Diagnostic.is_error report.diagnostics) in
  let warnings =
    List.length (List.filter Diagnostic.is_warning report.diagnostics)
  in
  let infos =
    List.length (List.filter Diagnostic.is_info report.diagnostics)
  in
  let summary =
    if errors = 0 && warnings = 0 && infos = 0 then "no diagnostics"
    else
      Printf.sprintf "%d error(s), %d warning(s)" errors warnings
      ^ if infos = 0 then "" else Printf.sprintf ", %d info(s)" infos
  in
  String.concat "\n" (body @ [ summary ])

let render_json report = Diagnostic.list_to_json report.diagnostics
