(** Structured errors for the EXL front end and its consumers. *)

type t = {
  pos : Ast.pos option;
  msg : string;
  code : string option;
      (** Stable diagnostic code ([E0xx]), when the raising site knows
          one; the analysis layer falls back to a generic code
          otherwise.  See [docs/DIAGNOSTICS.md] for the catalogue. *)
}

val to_string : t -> string

val to_string_with_source : source:string -> t -> string
(** Renders the error with the offending source line and a caret:
    {v
    line 3, column 8: unknown operator frobnicate
      B := frobnicate(A);
           ^
    v} *)

exception Exl_error of t
(** Internal escape hatch; public APIs catch it and return [result]. *)

val fail : ?pos:Ast.pos -> ?code:string -> string -> 'a
val failf : ?pos:Ast.pos -> ?code:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
val protect : (unit -> 'a) -> ('a, t) result
(** Runs the thunk, catching [Exl_error] (and [Invalid_argument], which
    substrate code raises on misuse) into [Error]. *)

val sort : t list -> t list
(** Stable sort by source position; errors without a position sort
    last. *)

val first : t list -> t
(** Head of an accumulated error list (a generic placeholder on []). *)

val list_to_string : t list -> string
(** One rendered error per line. *)
