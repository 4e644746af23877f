(** R surface syntax for script IR (paper, Section 5.2). *)

val script_to_string : Script.t -> string
