open Matrix

(** Variable bindings shared by the full chase ({!Chase}) and the
    incremental chase ({!Delta}): a partial map from tgd variables to
    values with functional extension, so backtracking search keeps
    earlier states intact for free. *)

type t = (string * Value.t) list

val empty : t
val lookup : t -> string -> Value.t option
val bind : t -> string -> Value.t -> t

val term_value : t -> Mappings.Term.t -> Value.t option
(** Evaluate a term under the binding; [None] when a variable is
    unbound or the operation is undefined (partial-function
    semantics). *)

val term_fully_bound : t -> Mappings.Term.t -> bool
