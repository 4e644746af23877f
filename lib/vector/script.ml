open Matrix

type stmt =
  | Copy of { dst : string; src : string }
  | Filter_rows of { dst : string; src : string; conditions : (string * Value.t) list }
  | Merge of { dst : string; left : string; right : string; by : string list }
  | Merge_outer of { dst : string; left : string; right : string; by : string list }
  | Assign_col of { frame : string; col : string; expr : Frame_ops.col_expr }
  | Select_cols of { dst : string; src : string; cols : (string * string) list }
  | Group_agg of {
      dst : string;
      src : string;
      by : (string * Frame_ops.col_expr) list;
      aggr : Stats.Aggregate.t;
      measure : Frame_ops.col_expr;
    }
  | Apply_fn of { dst : string; src : string; fn : string; params : float list }
  | Const_frame of { dst : string; cols : string list; rows : Value.t list list }

type t = stmt list
