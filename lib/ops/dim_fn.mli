open Matrix

(** Scalar functions on dimension values.

    "Structural elements ... for example, the application of the
    [quarter] function to a date dimension" (paper, Section 3): these
    re-map a temporal dimension to a coarser frequency inside a
    [group by] clause, as in statement (1) of the overview. *)

type t = private { name : string; target : Calendar.frequency }

val find : string -> t option
val find_exn : string -> t
val names : unit -> string list

val apply : t -> Value.t -> Value.t option
(** [Date] and [Period] inputs convert to the target frequency's period
    containing them; [None] when the input is not temporal or is a
    period strictly coarser than the target. *)

val result_domain : t -> Domain.t

val applicable : t -> Domain.t -> bool
(** Whether the function accepts values of the given dimension domain. *)
