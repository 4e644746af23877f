(** Lint driver: one call from source text to a full diagnostic
    report, used by [exlc lint] and the test suite. *)

type report = {
  diagnostics : Diagnostic.t list;
  checked : Exl.Typecheck.checked option;
      (** present when the program parsed and type-checked *)
  mapping : Mappings.Mapping.t option;
      (** present when mapping generation also succeeded *)
  optimizer : Optimize.report option;
      (** [Optimize.run] on [mapping], present when the I3xx notes were
          computed (a mapping with no error findings) *)
}

val source_diagnostics : string -> report
(** Parse (E001), typecheck accumulating every error (E00x), then —
    only on success — EXL lints (W10x), mapping generation, and
    mapping-level checks (E20x/W205). *)

val filter : suppress:string list -> report -> report
(** Drops suppressed warning codes. Errors are never suppressed. *)

val exit_code : deny_warnings:bool -> report -> int
(** 1 if any error, or any warning under [deny_warnings]; else 0. *)

val render_text : ?source:string -> report -> string
(** One line per diagnostic (with source caret when [source] is
    given), then a summary line. *)

val render_json : report -> string
