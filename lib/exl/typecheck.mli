open Matrix

(** Static checking and schema inference for EXL programs.

    Enforces the well-formedness conditions of the paper (Section 3):
    derived cubes reference only elementary cubes or previously defined
    ones (acyclicity by construction), each derived cube has exactly one
    definition (the functional restriction), vectorial operands share
    their dimensions, aggregations group by existing dimensions,
    dimension functions apply to temporal dimensions, and black-box
    operators receive (slice-wise) time series. *)

type ty = Scalar_ty | Cube_ty of (string * Domain.t) list
(** The type of an expression: a scalar constant or a cube with the
    given ordered dimensions (the measure is always numeric). *)

module Env : sig
  (** Cube schema environment built while checking. *)

  type t

  val schema : t -> string -> Schema.t option
  val schema_exn : t -> string -> Schema.t
  val kind : t -> string -> Registry.kind option
  val names : t -> string list  (** In declaration/definition order. *)

end

type checked = {
  program : Ast.program;
  env : Env.t;
  statements : Ast.stmt list;  (** in program order *)
}

val check : Ast.program -> (checked, Errors.t list) result
(** Accumulating: reports {e every} type error in one run, ordered by
    source position.  A failed statement poisons its cube name so that
    downstream references do not produce "undefined cube" cascades. *)

val infer_expr : Env.t -> Ast.expr -> (ty, Errors.t) result
(** Type of one expression under an environment (exposed for tests and
    for the normalizer). *)

val warnings : checked -> string list
(** Non-fatal findings: declared elementary cubes that no statement
    ever references. *)

val elementary_schemas : checked -> Schema.t list
val derived_schemas : checked -> Schema.t list
