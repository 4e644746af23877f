(** Dimension and measure domains (types).

    EXL is typed at the level of cube schemas: each dimension has a
    domain and the single measure is numeric (paper, Section 3).  Time
    dimensions may be constrained to a sampling frequency, which is what
    makes frequency-changing aggregations (statement (1) of the overview)
    type-checkable. *)

type t =
  | Bool
  | Int
  | Float
  | String
  | Date
  | Period of Calendar.frequency option
      (** [Period None] accepts any frequency. *)
  | Any

val equal : t -> t -> bool

val member : Value.t -> t -> bool
(** Domain membership; [Null] belongs to every domain (partiality),
    [Int] values belong to [Float] (numeric widening). *)

val parse : t -> string -> Value.t option
(** A non-empty text read by the domain it belongs to: a [String]
    domain keeps the text as it is (["040"] stays a string); [Date],
    [Bool] and [Period] parse it as such, [None] when it does not parse
    or a period has another frequency; [Int], [Float] and [Any] keep
    {!Value.of_string_guess}'s best-effort guess, so the caller checks
    {!member} where it must.  CSV cells, update batches and the
    server's filters all read text this way. *)

val is_numeric : t -> bool
val is_temporal : t -> bool
(** [Date] or [Period _]: the domains on which shift and frequency
    conversion are defined. *)

val union : t -> t -> t option
(** Least common domain of two, when comparable ([Int]/[Float] widen to
    [Float]; [Period Some f] and [Period None] join to [Period None]). *)

val to_string : t -> string
val of_string : string -> t option
(** Parses the surface syntax used in EXL cube declarations:
    ["int"], ["float"], ["string"], ["bool"], ["date"], ["period"],
    ["quarter"], ["month"], ["year"], ["week"], ["day"], ["semester"]. *)
