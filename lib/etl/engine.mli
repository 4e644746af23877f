open Matrix

(** The streaming ETL engine: executes flows against a cube registry
    (the "storage system" of the paper's architecture). *)

type stats = {
  mutable rows_read : int;
  mutable rows_written : int;
  mutable steps_executed : int;
  mutable batches : int;  (** row chunks pushed through the stream *)
}

val run_job :
  ?batch_size:int ->
  storage:Registry.t ->
  schema_lookup:(string -> Schema.t option) ->
  Job.t ->
  (stats, string) result
