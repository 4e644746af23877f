(** Kettle-style XML serialization of jobs and flows.

    EXLEngine "supports Pentaho Data Integration ... completely metadata
    driven": translation feeds the tool's catalog.  This module renders
    our flow metadata in the transformation/step XML shape Kettle
    consumes, which is what the engineered system would hand over. *)

val escape : string -> string
val job_to_xml : Job.t -> string
