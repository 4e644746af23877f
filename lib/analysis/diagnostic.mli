(** Accumulating diagnostics with stable codes.

    The diagnostics core of the [exl-analysis] subsystem: every finding
    — front-end type error, EXL lint, mapping-level static check —
    becomes a {!t} carrying a stable code ([E0xx] errors, [W1xx] EXL
    warnings, [E2xx]/[W2xx] mapping-layer findings), a severity, an
    optional source span, and a message.  Two render formats: human
    text (with source line and caret) and machine-readable JSON for CI.
    The catalogue of codes lives here and is mirrored in
    [docs/DIAGNOSTICS.md]. *)

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  pos : Exl.Ast.pos option;
  message : string;
}

val make : code:string -> ?pos:Exl.Ast.pos -> string -> t
(** Severity is derived from the code prefix: [W...] is a warning,
    [I...] an informational note, anything else an error. *)

val makef :
  code:string -> ?pos:Exl.Ast.pos -> ('a, Format.formatter, unit, t) format4 -> 'a

val of_error : ?default_code:string -> Exl.Errors.t -> t
(** Lifts a front-end error; its own code wins, else [default_code]
    (default ["E002"]). *)

val is_error : t -> bool
val is_warning : t -> bool
val is_info : t -> bool

val sort : t list -> t list

val description : string -> string option
val known_codes : string list

val to_string : t -> string
(** [error[E007]: line 3, column 8: reference to undefined cube X] *)

val to_string_with_source : source:string -> t -> string
(** {!to_string} plus the offending source line and a caret. *)

val list_to_json : t list -> string
(** [{"diagnostics":[...],"summary":{"errors":n,"warnings":m,"infos":k}}] *)
