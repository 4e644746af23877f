(** EXL-level lint passes (W1xx codes).

    These run on a successfully type-checked program and flag legal but
    suspicious constructs:

    - [W101] elementary cube declared but never used;
    - [W102] derived cube that never reaches any emitted target;
    - [W103] aggregation grouping by every dimension of its operand;
    - [W104] black-box operator needing a seasonal period that is
      neither given nor inferable from the operand's frequency;
    - [W105] shift by zero or by a distance exceeding the representable
      calendar range. *)

val run : Exl.Typecheck.checked -> Diagnostic.t list
(** All passes, sorted by source position. *)
