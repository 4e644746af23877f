open Matrix

(** Black-box multi-tuple operator catalogue.

    The paper's second operator class: operators that "receive one cube
    in input and transform it by producing another cube", where each
    output tuple may depend on {e all} input tuples — seasonal
    decomposition [stl_T] being the flagship (tgd (4) of the overview
    has no variables for this reason).

    Operators act on the chronologically sorted measure vector of a
    time series.  As an extension (the paper's cubes-with-more-dims
    footnote), cubes with extra non-temporal dimensions are processed
    {e per slice}: the operator runs independently on each combination
    of the non-temporal dimension values. *)

type t = private {
  name : string;
  min_params : int;
  max_params : int;
  needs_period : bool;
      (** Requires a seasonal period: taken from the first parameter or
          inferred from the series frequency via [default_period]. *)
  eval : params:float list -> period:int option -> float array -> float array;
}

val find : string -> t option
(** Case-insensitive: the paper writes [stl_T], we store [stl_t]. *)

val names : unit -> string list

val default_period : Calendar.frequency -> int option
(** Quarter -> 4, Month -> 12, Semester -> 2, Week -> 52, Day -> 7,
    Year -> None (annual data has no sub-year seasonality). *)

val apply_vector :
  t -> params:float list -> freq:Calendar.frequency option -> float array ->
  (float array, string) result
(** Runs the operator on a raw vector. NaNs in the output are preserved
    here; cube-level application drops them (partial functions). *)

val apply_cube : t -> params:float list -> Cube.t -> (Cube.t, string) result
(** Slice-wise application: requires exactly one temporal dimension;
    result has the same schema. Output tuples with NaN measures are
    dropped. *)

val register :
  name:string ->
  ?min_params:int ->
  ?max_params:int ->
  ?needs_period:bool ->
  (params:float list -> period:int option -> float array -> float array) ->
  unit
(** User-defined black boxes (the paper's user-defined stored functions
    / user-defined ETL steps). @raise Invalid_argument on duplicates. *)
