open Matrix

(** The streaming ETL engine: executes flows against a cube registry
    (the "storage system" of the paper's architecture). *)

type stats = {
  mutable rows_read : int;
  mutable rows_written : int;
  mutable steps_executed : int;
  mutable batches : int;  (** row chunks pushed through the stream *)
}

val empty_stats : unit -> stats

val run_flow :
  ?batch_size:int ->
  storage:Registry.t ->
  schema_lookup:(string -> Schema.t option) ->
  Flow.t ->
  stats ->
  (unit, string) result
(** Executes the steps in order, writing the output cube into
    [storage] as a derived cube, or adding its facts to the derived
    cube an earlier flow wrote under that name.  [batch_size] (default 1024) is the
    stream granularity — semantics-neutral, it models the paper's
    stream-like architecture and is reported in [stats.batches]. *)

val run_job :
  ?batch_size:int ->
  storage:Registry.t ->
  schema_lookup:(string -> Schema.t option) ->
  Job.t ->
  (stats, string) result
