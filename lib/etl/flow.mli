(** A flow: the DAG of steps implementing one tgd (paper, Figure 1). *)

type t = { name : string; steps : Step.t list }

val make : name:string -> Step.t list -> (t, string) result
(** Validates: unique step names, every referenced input defined by an
    {e earlier} step (so definition order is a topological order), every
    non-output step consumed, exactly one output step. *)

val output_cube : t -> string
(** The cube the flow's [Table_output] writes. *)

val input_cubes : t -> string list
(** Cubes read by the flow's [Table_input] steps. *)
