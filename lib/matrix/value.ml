type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of Calendar.Date.t
  | Period of Calendar.Period.t

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* ints and floats live in the same numeric order *)
  | String _ -> 3
  | Date _ -> 4
  | Period _ -> 5

(* An int against a float, exactly: [float_of_int] rounds ints beyond
   +-2^53, which would make two distinct ints equal to one float.  The
   float's integral part is an int whenever it lies in [-2^62, 2^62),
   and beyond that range every int is on one side of it.  NaN is below
   every int, as [Float.compare] puts it below every float. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    let t = Float.trunc y in
    match Int.compare x (int_of_float t) with
    | 0 -> Float.compare t y
    | c -> c

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> - compare_int_float y x
  | String x, String y -> String.compare x y
  | Date x, Date y -> Calendar.Date.compare x y
  | Period x, Period y -> Calendar.Period.compare x y
  | ( (Null | Bool _ | Int _ | Float _ | String _ | Date _ | Period _),
      (Null | Bool _ | Int _ | Float _ | String _ | Date _ | Period _) ) ->
      Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Ints are mixed, so a stride of a power of two does not pile them
   into a few slots of a table.  A date is one int per calendar day,
   read off its fields without a division, and a period its own hash,
   both unmixed: consecutive days and periods fill nearby slots, so a
   table keyed on them iterates in near-calendar order and its lookups
   stay cache-local.  A mixed date hash loses that locality and, with
   it, the gain on gdp_cycle (docs/PERFORMANCE.md). *)
let mix h =
  let h = h * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 32)

(* A float equal to an int is integral and within [-2^62, 2^62), so it
   hashes as that int; -0. hashes as 0 and every NaN alike. *)
let hash_float f =
  if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then mix (int_of_float f)
  else Hashtbl.hash f

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> mix i
  | Float f -> hash_float f
  | String s -> Hashtbl.hash s
  | Date { Calendar.Date.year; month; day } -> (((year * 12) + month) * 31) + day
  | Period p -> 0x9E12 lxor Calendar.Period.hash p

let is_null = function Null -> true | _ -> false

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1. else 0.)
  | Null | String _ | Date _ | Period _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Date _ -> "date"
  | Period _ -> "period"

let to_float_exn v =
  match to_float v with
  | Some f -> f
  | None ->
      invalid_arg ("Value.to_float_exn: non-numeric value of type " ^ type_name v)

let of_float f = if Float.is_nan f then Null else Float f

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | Bool b -> Some (if b then 1 else 0)
  | Null | Float _ | String _ | Date _ | Period _ -> None

(* The C primitive behind [Printf]'s [%g]: the same text, without
   interpreting a format at run time. *)
external format_float : string -> float -> string = "caml_format_float"

(* Floats written as the integer they hold. *)
let integral f = Float.is_integer f && Float.abs f < 1e15

let to_string = function
  | Null -> ""
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f ->
      if integral f then
        (* the text of [%.0f], which keeps the sign of a negative zero *)
        if Float.sign_bit f && f = 0. then "-0" else string_of_int (int_of_float f)
      else
        (* shortest representation that round-trips exactly *)
        let s = format_float "%.15g" f in
        if float_of_string s = f then s else format_float "%.17g" f
  | String s -> s
  | Date d -> Calendar.Date.to_string d
  | Period p -> Calendar.Period.to_string p

(* The decimal digits of [-m], for [m <= 0]: read off the non-positive
   side, which holds [min_int] too. *)
let rec add_neg_digits buf m =
  if m <= -10 then add_neg_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_neg_digits buf (if n > 0 then -n else n)

(* [-0.] is left to [to_string], which writes ["-0"]. *)
let add_to_buffer buf = function
  | Int i -> add_int buf i
  | Float f when integral f && not (f = 0. && Float.sign_bit f) ->
      add_int buf (int_of_float f)
  | Date d -> Calendar.Date.add_to_buffer buf d
  | v -> Buffer.add_string buf (to_string v)

let of_string_guess s =
  if s = "" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> (
            match Calendar.Date.of_string s with
            | Some d -> Date d
            | None -> (
                match bool_of_string_opt s with
                | Some b -> Bool b
                | None -> (
                    (* Periods like 2023Q1 but not plain years: a bare
                       integer already parsed as Int above. *)
                    match Calendar.Period.of_string s with
                    | Some p when Calendar.Period.freq p <> Calendar.Year ->
                        Period p
                    | _ -> String s))))
