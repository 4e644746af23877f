(** Seasonal decomposition of time series.

    The paper's flagship black-box operator: [stl] splits a series into
    trend, seasonal and remainder components; tgd (4) of the overview
    extracts the trend ([stl_T]).  Two algorithms are provided:

    - {e classical} additive decomposition (centered moving-average
      trend, period-averaged seasonal), and
    - an {e STL-style} iterative variant using loess for cycle-subseries
      and trend smoothing, closer to R's [stl(..., "periodic")].

    Both satisfy [trend + seasonal + remainder = input] pointwise and the
    seasonal component sums to ~0 over each full period. *)

type method_ = Classical | Stl
(** The default method is [Stl].  Every function below raises
    [Invalid_argument] when [period < 2] or the series is shorter than
    two periods. *)

val trend : ?method_:method_ -> period:int -> float array -> float array
(** The paper's [stl_T]. *)

val seasonal : ?method_:method_ -> period:int -> float array -> float array
(** [stl_S]. *)

val remainder : ?method_:method_ -> period:int -> float array -> float array
(** [stl_R]. *)

val deseasonalize : ?method_:method_ -> period:int -> float array -> float array
(** Input minus its seasonal component (seasonal adjustment). *)
