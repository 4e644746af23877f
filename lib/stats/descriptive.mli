(** Descriptive statistics over float arrays.

    The numeric core used by EXL aggregation operators and by the
    decomposition / regression substrates. All functions raise
    [Invalid_argument] on empty input unless stated otherwise. *)

val sum : float array -> float  (** 0. on empty input. *)

val product : float array -> float  (** 1. on empty input. *)

val mean : float array -> float
val variance : float array -> float
(** Population variance (divide by n). *)

val stddev : float array -> float
val min : float array -> float
val max : float array -> float
val median : float array -> float
(** Average of the two middle order statistics for even lengths. *)

val autocorrelation : lag:int -> float array -> float
(** Sample autocorrelation at the given lag; 0 on degenerate input. *)
