open Matrix

(** Binary algebraic operators on measures.

    The paper's tuple-level vectorial/scalar operators with special
    syntax: result defined only where both operands are defined and the
    operation is meaningful (division by zero leaves a hole). *)

type t = Add | Sub | Mul | Div | Pow

val to_string : t -> string  (** "+", "-", "*", "/", "^" *)

val eval : t -> float -> float -> float option
(** [None] where undefined: x/0, 0^negative, NaN results. *)

val eval_value : t -> Value.t -> Value.t -> Value.t
(** Lifted to values: non-numeric operands or undefined results give
    [Value.Null]. *)

val precedence : t -> int
(** 1 for +/-, 2 for * and /, 3 for ^. *)

val is_right_assoc : t -> bool  (** Only [Pow]. *)
