(** Loess: locally weighted linear regression smoothing.

    The smoother underlying STL [Cleveland et al.]; our [Decompose]
    module uses it for the trend and cycle-subseries smoothing of the
    STL-style variant of the paper's [stl] operator. *)

val smooth : span:int -> float array -> float array
(** Smooth a series indexed by position (xs = 0, 1, 2, ...). *)

val tricube : float -> float
(** The tricube weight [(1 - |u|^3)^3] for |u| < 1, else 0. *)
