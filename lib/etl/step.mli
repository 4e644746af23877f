open Matrix

(** ETL step metadata (paper, Section 5.3).

    A flow is built from data-source steps, merge steps joining streams
    on dimensions, calculation steps combining measures, aggregation
    steps, user-defined (table-function) steps, and output steps —
    exactly the vocabulary of Figure 1.  Formulas are {!Mappings.Term}s
    whose variables are stream field names, mirroring how Kettle's
    calculator references input fields. *)

type t =
  | Table_input of { step : string; cube : string }
      (** Reads the named cube from storage; fields are the cube's
          dimension names plus its measure name. *)
  | Generate_rows of { step : string; fields : string list; rows : Value.t list list }
      (** Constant input (for tgds with an empty lhs). *)
  | Filter_rows of { step : string; input : string; conditions : (string * Value.t) list }
      (** Keep rows whose fields equal the given constants (the EXL
          [filter] operator; Kettle's FilterRows step). *)
  | Merge_join of {
      step : string;
      left : string;
      right : string;
      keys : string list;
      join : [ `Inner | `Full ];
    }
      (** Join of two incoming streams on equally named key fields;
          clashing non-key fields are suffixed [_x]/[_y].  Rows with a
          [Null] key never match.  [`Full] keeps unmatched rows of both
          sides with [Null] fields (key fields coalesced). *)
  | Sort of { step : string; input : string }
      (** Lexicographic row sort — placed before aggregation so
          order-sensitive aggregates are deterministic (Kettle likewise
          requires sorted input for group-by). *)
  | Calculator of { step : string; input : string; outputs : (string * Mappings.Term.t) list }
      (** Appends computed fields; a formula evaluating to an undefined
          value yields [Null] in that field. *)
  | Group_by of {
      step : string;
      input : string;
      keys : (string * Mappings.Term.t) list;
      aggr : Stats.Aggregate.t;
      measure : Mappings.Term.t;
    }
      (** Output fields: key names plus ["value"]. *)
  | Table_function of { step : string; input : string; fn : string; params : float list; schema_of : string }
      (** User-defined whole-stream step: converts the stream to a cube
          (using the schema of [schema_of]) and applies a black-box
          operator. *)
  | Select_fields of { step : string; input : string; fields : (string * string) list }
      (** Projection / rename; [(source, output)] pairs in order. *)
  | Table_output of { step : string; input : string; cube : string }
      (** Writes the stream back into storage under the named cube. *)

val name : t -> string
val inputs : t -> string list
(** Names of the steps this step consumes (empty for sources). *)

val kind : t -> string
(** Short label for rendering: "TableInput", "MergeJoin", ... *)
