open Matrix

(** Script IR execution against the frame engine. *)

type env
(** Mutable frame environment (what the R workspace would hold). *)

val create_env : unit -> env
val bind : env -> string -> Frame.t -> unit
val frame : env -> string -> Frame.t option

val run :
  schema_lookup:(string -> Schema.t option) ->
  env ->
  Script.t ->
  (unit, string) result
(** Executes statements in order; [schema_lookup] resolves temporal
    domains for black-box applications and cube conversion. *)
