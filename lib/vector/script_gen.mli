(** Tgd → script IR translation (paper, Section 5.2).

    The vector targets consume {e unfused} mappings (the paper notes
    translations into matrix languages are "often direct", one small
    block per tgd); tuple-level tgds with more than two atoms are
    rejected. *)

val script_of_mapping :
  Mappings.Mapping.t -> (Script.t, string) result
