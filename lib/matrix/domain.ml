type t =
  | Bool
  | Int
  | Float
  | String
  | Date
  | Period of Calendar.frequency option
  | Any

let equal a b =
  match (a, b) with
  | Bool, Bool | Int, Int | Float, Float | String, String | Date, Date | Any, Any
    ->
      true
  | Period x, Period y -> x = y
  | (Bool | Int | Float | String | Date | Period _ | Any), _ -> false

let member v d =
  match (v, d) with
  | Value.Null, _ -> true
  | _, Any -> true
  | Value.Bool _, Bool -> true
  | Value.Int _, Int -> true
  | Value.Int _, Float -> true
  | Value.Float _, Float -> true
  | Value.String _, String -> true
  | Value.Date _, Date -> true
  | Value.Period _, Period None -> true
  | Value.Period p, Period (Some f) -> Calendar.Period.freq p = f
  | ( Value.(Bool _ | Int _ | Float _ | String _ | Date _ | Period _),
      (Bool | Int | Float | String | Date | Period _) ) ->
      false

let parse d text =
  match d with
  | String -> Some (Value.String text)
  | Date -> Option.map (fun d -> Value.Date d) (Calendar.Date.of_string text)
  | Bool -> Option.map (fun b -> Value.Bool b) (bool_of_string_opt text)
  | Period freq -> (
      match Calendar.Period.of_string text with
      | Some p when freq = None || freq = Some (Calendar.Period.freq p) ->
          Some (Value.Period p)
      | _ -> None)
  | Int | Float | Any -> Some (Value.of_string_guess text)

let is_numeric = function
  | Int | Float -> true
  | Bool | String | Date | Period _ | Any -> false

let is_temporal = function
  | Date | Period _ -> true
  | Bool | Int | Float | String | Any -> false

let union a b =
  match (a, b) with
  | x, y when equal x y -> Some x
  | Int, Float | Float, Int -> Some Float
  | Period _, Period _ -> Some (Period None)
  | Any, x | x, Any -> Some x
  | _ -> None

let to_string = function
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | String -> "string"
  | Date -> "date"
  | Period None -> "period"
  | Period (Some f) -> Calendar.frequency_to_string f
  | Any -> "any"

let of_string s =
  match String.lowercase_ascii s with
  | "bool" -> Some Bool
  | "int" -> Some Int
  | "float" | "number" | "numeric" -> Some Float
  | "string" -> Some String
  | "date" -> Some Date
  | "period" -> Some (Period None)
  | "any" -> Some Any
  | other -> (
      match Calendar.frequency_of_string other with
      | Some Calendar.Day -> Some Date
      | Some f -> Some (Period (Some f))
      | None -> None)
