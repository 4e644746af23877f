(** Civil dates and statistical periods.

    The Matrix data model (and EXL) distinguishes time dimensions from the
    others; values of time dimensions are either civil dates or {e periods}
    at a given sampling frequency (year, semester, quarter, month, week,
    day).  Frequency conversion (e.g. [quarter] applied to a date dimension,
    as in statement (1) of the paper's overview) and the [shift] operator
    are defined here. *)

(** A sampling frequency, ordered from coarsest to finest. *)
type frequency = Year | Semester | Quarter | Month | Week | Day

val frequency_to_string : frequency -> string
val frequency_of_string : string -> frequency option

val periods_per_year : frequency -> int option
(** [None] for [Week] and [Day], whose count per year is not constant. *)

val compare_frequency : frequency -> frequency -> int
(** Coarser frequencies compare smaller: [Year < ... < Day]. *)

module Date : sig
  (** Civil (proleptic Gregorian) dates. *)

  type t = private { year : int; month : int; day : int }

  val make : year:int -> month:int -> day:int -> t
  (** @raise Invalid_argument on out-of-range components. *)

  val make_opt : year:int -> month:int -> day:int -> t option
  val is_leap_year : int -> bool
  val days_in_month : year:int -> month:int -> int
  val compare : t -> t -> int
  val equal : t -> t -> bool

  val to_rata_die : t -> int
  (** Days since 0000-03-01 under the proleptic Gregorian calendar; a
      total order on dates supporting O(1) day arithmetic. *)

  val of_rata_die : int -> t
  val add_days : t -> int -> t
  val day_of_week : t -> int  (** 0 = Monday ... 6 = Sunday (ISO). *)

  val to_string : t -> string  (** ISO-8601 [YYYY-MM-DD]. *)

  val add_to_buffer : Buffer.t -> t -> unit
  (** The text of [to_string], appended without building a string. *)

  val of_string : string -> t option
end

module Period : sig
  (** A period is a frequency together with an integral index counting
      periods from a fixed epoch, so that [shift] is index arithmetic and
      periods at the same frequency are totally ordered. *)

  type t = private { freq : frequency; index : int }

  val make : frequency -> int -> t

  val year : int -> t
  val semester : int -> int -> t  (** [semester y s] with [s] in 1..2. *)

  val quarter : int -> int -> t   (** [quarter y q] with [q] in 1..4. *)

  val month : int -> int -> t     (** [month y m] with [m] in 1..12. *)

  val week : int -> int -> t      (** [week y w], ISO week number. *)

  val day : Date.t -> t

  val freq : t -> frequency
  val index : t -> int

  val year_of : t -> int
  (** The calendar year the period starts in. *)

  val sub_of : t -> int
  (** The within-year ordinal (quarter number, month number, ...);
      1 for [Year]. *)

  val shift : t -> int -> t
  (** [shift p s] is the period [s] steps later ([s] may be negative).
      This is the paper's time-shift operator on dimension values. *)

  val compare : t -> t -> int
  (** Orders first by frequency, then by index, so mixed-frequency keys
      still sort deterministically. *)

  val hash : t -> int

  val start_date : t -> Date.t
  val end_date : t -> Date.t

  val of_date : frequency -> Date.t -> t
  (** Frequency conversion of a date: the period of the given frequency
      containing the date.  [of_date Quarter] is the paper's [quarter]
      scalar dimension function. *)

  val convert : frequency -> t -> t
  (** Convert a period to a coarser (or equal) frequency: the target
      period containing this period's start date. *)

  val range : t -> t -> t list
  (** [range a b] enumerates periods from [a] to [b] inclusive, at the
      frequency of [a]. @raise Invalid_argument on frequency mismatch. *)

  val to_string : t -> string
  (** ["2023"], ["2023S1"], ["2023Q2"], ["2023M07"], ["2023W05"],
      ["2023-07-14"]. *)

  val of_string : string -> t option
end
