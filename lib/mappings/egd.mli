open Matrix

(** Equality-generating dependencies enforcing cube functionality.

    For each cube [F(x1, ..., xn, y)] the paper adds
    [F(x1, ..., xn, y1) ∧ F(x1, ..., xn, y2) → (y1 = y2)].
    Section 4.2 argues these can never fail on chase results because
    every tgd computes the measure as a function of the dimensions; the
    chase checks them anyway (machine-checking the argument). *)

type t = { relation : string; dims : int }

val of_schema : Schema.t -> t

val to_string : t -> string
