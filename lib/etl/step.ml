open Matrix

type t =
  | Table_input of { step : string; cube : string }
  | Generate_rows of { step : string; fields : string list; rows : Value.t list list }
  | Filter_rows of { step : string; input : string; conditions : (string * Value.t) list }
  | Merge_join of {
      step : string;
      left : string;
      right : string;
      keys : string list;
      join : [ `Inner | `Full ];
    }
  | Sort of { step : string; input : string }
  | Calculator of { step : string; input : string; outputs : (string * Mappings.Term.t) list }
  | Group_by of {
      step : string;
      input : string;
      keys : (string * Mappings.Term.t) list;
      aggr : Stats.Aggregate.t;
      measure : Mappings.Term.t;
    }
  | Table_function of { step : string; input : string; fn : string; params : float list; schema_of : string }
  | Select_fields of { step : string; input : string; fields : (string * string) list }
  | Table_output of { step : string; input : string; cube : string }

let name = function
  | Table_input { step; _ }
  | Generate_rows { step; _ }
  | Filter_rows { step; _ }
  | Merge_join { step; _ }
  | Sort { step; _ }
  | Calculator { step; _ }
  | Group_by { step; _ }
  | Table_function { step; _ }
  | Select_fields { step; _ }
  | Table_output { step; _ } ->
      step

let inputs = function
  | Table_input _ | Generate_rows _ -> []
  | Merge_join { left; right; _ } -> [ left; right ]
  | Filter_rows { input; _ }
  | Sort { input; _ }
  | Calculator { input; _ }
  | Group_by { input; _ }
  | Table_function { input; _ }
  | Select_fields { input; _ }
  | Table_output { input; _ } ->
      [ input ]

let kind = function
  | Table_input _ -> "TableInput"
  | Generate_rows _ -> "GenerateRows"
  | Filter_rows _ -> "FilterRows"
  | Merge_join _ -> "MergeJoin"
  | Sort _ -> "SortRows"
  | Calculator _ -> "Calculator"
  | Group_by _ -> "GroupBy"
  | Table_function _ -> "UserDefined"
  | Select_fields _ -> "SelectValues"
  | Table_output _ -> "TableOutput"
