(** Atomic values carried by cube dimensions and measures.

    Measures in the paper are "all numeric"; dimension values additionally
    range over strings (classification codes), dates and periods.  [Null]
    represents a missing value: cubes are partial functions, and some
    operators (e.g. division by zero) leave holes in the result. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of Calendar.Date.t
  | Period of Calendar.Period.t

val compare : t -> t -> int
(** Total order across constructors (constructor rank first).  Numeric
    values compare cross-type by exact magnitude, so that
    [Int 2 = Float 2.] while [Int (2^53 + 1)] stays above [Float 2^53];
    NaN is below every other number. *)

val equal : t -> t -> bool

val hash : t -> int
(** Agrees with {!equal}: equal values hash alike, so [Int 1] and
    [Float 1.], [0.] and [-0.], and any two NaNs share a hash.  It
    allocates nothing for an int, an integral float, a date or a
    period.  Dates and periods hash in calendar order,
    unmixed: a later day hashes higher, and a period hashes as its
    index within its frequency xor a constant, so neighbouring days
    and periods get neighbouring hashes.  The iteration order of a
    table keyed on values is still unspecified. *)

val is_null : t -> bool

val to_float : t -> float option
(** Numeric coercion: [Int], [Float] and [Bool] (0/1) convert; other
    constructors yield [None]. *)

val to_float_exn : t -> float
(** @raise Invalid_argument when not numeric. *)

val of_float : float -> t
(** [Float f], except NaN which becomes [Null] (missing result). *)

val to_int : t -> int option
val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** The text of [to_string], appended to the buffer.  Ints, integral
    floats and dates with four-digit years are written without building
    a string. *)

val of_string_guess : string -> t
(** Best-effort parse used by CSV loading for [Int], [Float] and [Any]
    columns: int, float, date, bool, period, else string; [""] is
    [Null]. *)

val type_name : t -> string
(** Constructor name for error messages: ["int"], ["float"], ... *)
