type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  pos : Exl.Ast.pos option;
  message : string;
}

let severity_of_code code =
  if String.length code = 0 then Error
  else
    match code.[0] with 'W' -> Warning | 'I' -> Info | _ -> Error

let make ~code ?pos message = { code; severity = severity_of_code code; pos; message }

let makef ~code ?pos fmt =
  Format.kasprintf (fun message -> make ~code ?pos message) fmt

let of_error ?(default_code = "E002") (e : Exl.Errors.t) =
  make
    ~code:(Option.value ~default:default_code e.Exl.Errors.code)
    ?pos:e.Exl.Errors.pos e.Exl.Errors.msg

let is_error d = d.severity = Error
let is_warning d = d.severity = Warning
let is_info d = d.severity = Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let compare a b =
  let pos_key = function
    | None -> (max_int, max_int)
    | Some p -> (p.Exl.Ast.line, p.Exl.Ast.col)
  in
  let c = Stdlib.compare (pos_key a.pos) (pos_key b.pos) in
  if c <> 0 then c else Stdlib.compare (a.code, a.message) (b.code, b.message)

let sort ds = List.stable_sort compare ds

(* The full code catalogue; docs/DIAGNOSTICS.md is generated from the
   same descriptions, and the test suite asserts every emitted code is
   registered here. *)
let catalogue =
  [
    ("E001", "syntax error (lexer or parser)");
    ("E002", "type error");
    ("E003", "duplicate dimension name in a declaration or group by");
    ("E004", "group by key is not a dimension of the operand");
    ("E005", "unknown operator");
    ("E006", "operator arity or signature mismatch");
    ("E007", "reference to an undefined cube");
    ("E008", "vectorial operands have mismatched dimensions");
    ("E009", "cube declared or defined twice");
    ("W101", "elementary cube declared but never used");
    ("W102", "derived cube never reaches any emitted target");
    ("W103", "aggregation groups by every dimension of its operand (no-op)");
    ("W104", "black-box operator needs a seasonal period that is neither \
              given nor inferable");
    ("W105", "shift distance is zero or exceeds the representable calendar \
              range");
    ("W106", "statement is a provable identity after normalization (pure \
              copy of its operand)");
    ("E201", "unsafe tgd: a head variable is not bound by any body atom");
    ("E202", "dependency graph is not weakly acyclic (cycle through a \
              value-creating edge); chase termination not certified");
    ("E203", "functionality egd (dims determine measure) is not implied by \
              the defining tgd");
    ("E204", "stratification failure: tgd order is not a valid total order");
    ("W205", "target relation is never produced by any tgd");
    ("I302", "optimizer dropped a redundant body atom (core folding \
              witness attached)");
    ("I303", "optimizer merged duplicate functional body atoms (justified \
              by the relation's egd)");
    ("I304", "optimizer fused a temporary into its consumer(s) (cost model \
              win; proved by unfolding into tuple-level and aggregation \
              consumers, checked on the critical instance otherwise)");
    ("I305", "optimizer specialized an outer combine with provably equal \
              grids to a tuple-level tgd");
    ("I306", "optimizer discharged a functionality egd implied by the \
              defining tgd (determination chain attached)");
  ]

let description code = List.assoc_opt code catalogue
let known_codes = List.map fst catalogue

let to_string d =
  let loc =
    match d.pos with
    | Some p -> Format.asprintf "%a: " Exl.Ast.pp_pos p
    | None -> ""
  in
  Printf.sprintf "%s[%s]: %s%s" (severity_to_string d.severity) d.code loc
    d.message

let to_string_with_source ~source d =
  match d.pos with
  | None -> to_string d
  | Some p ->
      let lines = String.split_on_char '\n' source in
      if p.Exl.Ast.line < 1 || p.Exl.Ast.line > List.length lines then
        to_string d
      else
        let line = List.nth lines (p.Exl.Ast.line - 1) in
        let caret = String.make (max 0 (p.Exl.Ast.col - 1)) ' ' ^ "^" in
        Printf.sprintf "%s\n  %s\n  %s" (to_string d) line caret

let to_json d =
  let open Obs.Json in
  let pos =
    match d.pos with
    | Some p ->
        [
          ("line", Num (float_of_int p.Exl.Ast.line));
          ("col", Num (float_of_int p.Exl.Ast.col));
        ]
    | None -> []
  in
  Obj
    ([ ("code", Str d.code); ("severity", Str (severity_to_string d.severity)) ]
    @ pos
    @ [ ("message", Str d.message) ])

let list_to_json ds =
  let open Obs.Json in
  let count p = Num (float_of_int (List.length (List.filter p ds))) in
  to_string
    (Obj
       [
         ("diagnostics", List (List.map to_json ds));
         ( "summary",
           Obj
             [
               ("errors", count is_error);
               ("warnings", count is_warning);
               ("infos", count is_info);
             ] );
       ])
