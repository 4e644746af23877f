(** Missing-value (NaN) interpolation for series vectors.

    Intermediate transforms (centered moving averages, lagged
    differences) leave NaN holes at series boundaries; decomposition
    needs complete vectors, so these fillers are applied first. *)

val fill_linear : float array -> float array
(** Interior NaN runs are linearly interpolated between their finite
    neighbours; leading/trailing runs are extrapolated from the nearest
    two finite points (or held constant when only one exists).
    An all-NaN input is returned unchanged. *)
