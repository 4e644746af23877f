open Matrix

(** A schema mapping [M = (S, T, Σst, Σt)] (paper, Section 4.1).

    [S] holds a relation per cube of the EXL program; [T] is a renamed
    copy.  [Σst] copies source relations to the target; [Σt] holds one
    extended tgd per (normalized) statement, in statement order — for a
    generated mapping a valid stratification; the chase itself orders
    the tgds by dependency ({!Stratify.strata}) — plus the
    functionality egds. *)

type t = {
  source : Schema.t list;  (** elementary cube relations *)
  target : Schema.t list;  (** all cube relations (elementary + derived) *)
  st_tgds : Tgd.t list;  (** copy tgds for the elementary relations *)
  t_tgds : Tgd.t list;  (** statement tgds, in stratification order *)
  egds : Egd.t list;
}

val target_schema : t -> string -> Schema.t option
val target_schema_exn : t -> string -> Schema.t
val derived : t -> Schema.t list
(** The target relations minus the sources: what executing the mapping
    computes. *)

val derived_order : t -> string list
(** Target relations in the order their defining tgds appear. *)

val tgd_for : t -> string -> Tgd.t option
(** The (unique) statement tgd defining the given relation. *)

val to_string : t -> string
(** The full mapping in logic notation — what the paper prints as
    tgds (1)-(5). *)
