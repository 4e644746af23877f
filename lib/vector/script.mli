open Matrix

(** Target-language-independent script IR for the R/Matlab targets.

    The paper shows that the R and Matlab translations of a tgd differ
    "essentially on syntax": we make that precise by generating one IR,
    executing it on the {!Frame} engine, and printing it in either
    surface syntax ({!R_print}, {!Matlab_print}). *)

type stmt =
  | Copy of { dst : string; src : string }
  | Filter_rows of { dst : string; src : string; conditions : (string * Value.t) list }
      (** Row selection on column = constant conditions (the EXL
          [filter] operator). *)
  | Merge of { dst : string; left : string; right : string; by : string list }
  | Merge_outer of { dst : string; left : string; right : string; by : string list }
      (** R's [merge(..., all = TRUE)], for the default-value variant of
          vectorial operators. *)
  | Assign_col of { frame : string; col : string; expr : Frame_ops.col_expr }
  | Select_cols of { dst : string; src : string; cols : (string * string) list }
      (** [(source column, destination column)] pairs, in order. *)
  | Group_agg of {
      dst : string;
      src : string;
      by : (string * Frame_ops.col_expr) list;
      aggr : Stats.Aggregate.t;
      measure : Frame_ops.col_expr;
    }
      (** Output columns: the [by] names plus ["value"]. *)
  | Apply_fn of { dst : string; src : string; fn : string; params : float list }
  | Const_frame of { dst : string; cols : string list; rows : Value.t list list }

type t = stmt list
