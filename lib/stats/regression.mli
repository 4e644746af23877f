(** Linear regression (ordinary and weighted least squares).

    EXL lists linear regression among its complex statistical operators;
    it is also the building block of the loess smoother used by the
    STL-style seasonal decomposition. *)

type fit = { slope : float; intercept : float }

val wls : weights:float array -> float array -> float array -> fit
(** Weighted least squares; weights must be non-negative and not all
    zero, else falls back to the mean. *)

val predict : fit -> float -> float

val fitted_line : float array -> float array
(** OLS regression of the values on their index — the linear trend of a
    series, exposed as the EXL black-box operator [lintrend]. *)
