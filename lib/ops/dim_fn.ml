open Matrix

type t = { name : string; target : Calendar.frequency }

let all =
  [
    { name = "year"; target = Calendar.Year };
    { name = "semester"; target = Calendar.Semester };
    { name = "quarter"; target = Calendar.Quarter };
    { name = "month"; target = Calendar.Month };
    { name = "week"; target = Calendar.Week };
    { name = "day"; target = Calendar.Day };
  ]

let find name = List.find_opt (fun t -> t.name = name) all

let find_exn name =
  match find name with
  | Some t -> t
  | None -> invalid_arg ("Dim_fn.find_exn: unknown dimension function " ^ name)

let names () = List.map (fun t -> t.name) all

let apply t v =
  match v with
  | Value.Date d -> Some (Value.Period (Calendar.Period.of_date t.target d))
  | Value.Period p ->
      if Calendar.compare_frequency (Calendar.Period.freq p) t.target >= 0 then
        Some (Value.Period (Calendar.Period.convert t.target p))
      else None
  | Value.(Null | Bool _ | Int _ | Float _ | String _) -> None

let result_domain t =
  match t.target with
  | Calendar.Day -> Domain.Period (Some Calendar.Day)
  | f -> Domain.Period (Some f)

let applicable t = function
  | Domain.Date -> true
  | Domain.Period None -> true
  | Domain.Period (Some f) -> Calendar.compare_frequency f t.target >= 0
  | Domain.(Bool | Int | Float | String | Any) -> false
