type t = { pos : Ast.pos option; msg : string; code : string option }

let make ?pos ?code msg = { pos; msg; code }

let to_string e =
  match e.pos with
  | Some p -> Format.asprintf "%a: %s" Ast.pp_pos p e.msg
  | None -> e.msg

let to_string_with_source ~source e =
  match e.pos with
  | None -> to_string e
  | Some p ->
      let lines = String.split_on_char '\n' source in
      if p.Ast.line < 1 || p.Ast.line > List.length lines then to_string e
      else
        let line = List.nth lines (p.Ast.line - 1) in
        let caret = String.make (max 0 (p.Ast.col - 1)) ' ' ^ "^" in
        Printf.sprintf "%s\n  %s\n  %s" (to_string e) line caret

exception Exl_error of t

let fail ?pos ?code msg = raise (Exl_error (make ?pos ?code msg))
let failf ?pos ?code fmt = Format.kasprintf (fun msg -> fail ?pos ?code msg) fmt

let protect f =
  try Ok (f ()) with
  | Exl_error e -> Error e
  | Invalid_argument msg -> Error (make msg)

let compare_pos a b =
  match (a.pos, b.pos) with
  | None, None -> 0
  | None, Some _ -> 1
  | Some _, None -> -1
  | Some p, Some q ->
      let c = compare p.Ast.line q.Ast.line in
      if c <> 0 then c else compare p.Ast.col q.Ast.col

let sort errs = List.stable_sort compare_pos errs

let first = function
  | [] -> make "unknown error"
  | e :: _ -> e

let list_to_string errs = String.concat "\n" (List.map to_string errs)
