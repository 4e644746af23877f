(** Minimal CSV import/export for cubes.

    Collection in the paper's statistical production flow feeds raw data
    "in a number of formats"; CSV is the lowest common denominator used
    by the examples. Header row carries dimension names then the measure
    name. Quoting follows RFC 4180 (double quotes, doubled to escape).
    A missing value is an empty bare cell; the empty string is written
    quoted ([""]). *)

val cube_to_string : Cube.t -> string
(** Header, then one row per fact, sorted by key. *)

val cube_to_channel : out_channel -> Cube.t -> unit
(** [cube_to_string], written to the channel. *)

val cube_to_channel_unsorted : out_channel -> Cube.t -> unit
(** The same header and rows as [cube_to_channel], but in the cube's
    own iteration order, which is unspecified: no sort. *)

val cube_of_string : Schema.t -> string -> (Cube.t, string) result
(** Parses rows against the schema.  The header row is validated
    against the schema's names.  Each cell is read by its column's
    domain: a [String] cell stays a string whatever it looks like;
    [Date], [Period] and [Bool] cells parse as such or fail the load;
    [Int], [Float] and [Any] cells go through [Value.of_string_guess].
    Keys are then checked for domain membership.  Rows may come in any
    order.  A key repeated with an equal measure is accepted; repeated
    with another measure it fails the load with
    ["line N: duplicate key ..."]. *)

val parse_rows : string -> string list list
(** Raw CSV parsing (exposed for tests). *)
