open Matrix

(** Scalar (tuple-level, measure) function catalogue.

    The paper's scalar operators: "sum, subtraction, product, division
    with a constant, increment, logarithm, exponential, trigonometric
    function" — one cube operand plus scalar parameters, applied to each
    measure independently.  The catalogue is shared by the EXL type
    checker, the reference interpreter, the chase, and every target
    engine, so a function admitted here is executable everywhere. *)

type t = private {
  name : string;
  min_params : int;
  max_params : int;
  param_first : bool;
      (** Whether parameters syntactically precede the operand, as in
          the paper's [log(2, e)]. *)
  eval : float list -> float -> float;
}

val find : string -> t option
val find_exn : string -> t
val names : unit -> string list

val apply : t -> params:float list -> float -> float option
(** Checks the parameter count and filters non-finite results
    (e.g. [log] of a non-positive measure leaves a hole). *)

val apply_value : t -> params:float list -> Value.t -> Value.t
(** Lifted to values; non-numeric input or undefined result is [Null]. *)

val register :
  name:string ->
  ?min_params:int ->
  ?max_params:int ->
  ?param_first:bool ->
  (float list -> float -> float) ->
  unit
(** Extension point: statisticians' user-defined scalar functions
    (the paper's "any system (or user) defined stored function").
    @raise Invalid_argument when the name is already taken. *)
