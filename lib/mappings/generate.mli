(** Schema-mapping generation from EXL programs (paper, Section 4.1).

    The input program is normalized to one operator per statement, and
    each normalized statement becomes exactly one extended tgd.  The
    resulting mapping together with an instance of the elementary cubes
    forms the data-exchange problem the chase solves ({!Chase} lives in
    its own library). *)

type generated = {
  mapping : Mapping.t;
  normalized : Exl.Typecheck.checked;
      (** The normalized program the tgds were generated from — needed
          by consumers that must resolve temp-cube schemas. *)
}

val of_checked : Exl.Typecheck.checked -> (generated, Exl.Errors.t) result
(** Normalizes first when needed. *)

val of_source : string -> (generated, Exl.Errors.t) result
(** Parse, check, normalize, generate. *)

