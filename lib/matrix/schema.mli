(** Cube schemas: a name, named typed dimensions, and one numeric measure.

    Corresponds to the paper's cube declaration
    [F(D1, ..., Dn) : X1 x ... x Xn -> Y].  Dimension names are
    significant: vectorial operators require operands with the same
    dimensions (same names and compatible domains). *)

type dimension = { dim_name : string; dim_domain : Domain.t }

type t = private {
  name : string;
  dims : dimension array;
  measure_name : string;
  measure_domain : Domain.t;
}

val make :
  ?measure_name:string ->
  ?measure_domain:Domain.t ->
  name:string ->
  dims:(string * Domain.t) list ->
  unit ->
  t
(** Default measure is ["value"] of domain [Float].
    @raise Invalid_argument on duplicate dimension names or a measure
    name clashing with a dimension. *)

val arity : t -> int
val dim_names : t -> string list
val dim_index : t -> string -> int option
val dim_index_exn : t -> string -> int
val dim_domain : t -> string -> Domain.t option

val time_dims : t -> string list
(** Dimensions with a temporal domain, in declaration order. *)

val compatible_tuple : t -> Tuple.t -> bool
(** Arity matches and each component is in its dimension's domain. *)

val equal : t -> t -> bool
val to_string : t -> string
