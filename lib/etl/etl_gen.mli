(** Tgd → ETL flow translation (paper, Section 5.3).

    "For each atom in the lhs there is a data source step in the flow.
    Data streams coming from these steps are merged on the basis of
    dimensions, while their measures are combined with the calculation
    step" — plus an aggregation step when grouping is needed, and an
    output step writing back.  Like the vector target, consumes unfused
    mappings (at most two atoms). *)

val job_of_mapping : Mappings.Mapping.t -> (Job.t, string) result
(** One flow per statement tgd, "tailored into a more comprising job
    according to tgds total order". *)
