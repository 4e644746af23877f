(** EXL aggregation operators over bags of measures.

    The paper's aggregation semantics (Section 3): the result of applying
    [aggr] to the {e bag} (repeated elements are meaningful) of measure
    values sharing a group-by key. The result tuple exists only when the
    bag is non-empty, which is why [apply] is never called on []. *)

type t =
  | Sum
  | Avg
  | Min
  | Max
  | Count
  | Median
  | Stddev
  | Variance
  | Product
  | First
  | Last

val all : t list
val to_string : t -> string
val of_string : string -> t option

val apply : t -> float list -> float
(** @raise Invalid_argument on the empty bag. [First]/[Last] follow the
    list order the caller accumulated (deterministic in our engines:
    sorted key order). *)

val apply_slice : t -> float array -> off:int -> len:int -> float
(** [apply_array] over a segment of a larger buffer (a group's slice of
    a segmented gather); copies only when the slice is proper. *)
