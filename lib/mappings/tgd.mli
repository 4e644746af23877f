(** Extended tuple-generating dependencies.

    Three shapes, mirroring Section 4.1 of the paper:

    - {b tuple-level}: conjunctions of atoms on the left, one atom on
      the right whose arguments are terms over the left's variables
      (tgds (1), (2), (5) of the overview).  All tgds are {e full}: no
      existential variables, so the chase generates only constants.
    - {b aggregation}: one source atom, a group-by list of dimension
      terms, and an aggregation operator applied to the bag of measures
      per group (tgd (3)).
    - {b table function}: a black-box operator consuming a whole
      relation and producing a whole relation; "we use no variables"
      (tgd (4)). *)

type atom = { rel : string; args : Term.t list }
(** By convention the last argument is the measure term, the preceding
    ones are dimension terms. *)

type t =
  | Tuple_level of { lhs : atom list; rhs : atom }
      (** [lhs = []] encodes a constant-cube definition: fires once. *)
  | Aggregation of {
      source : atom;
      group_by : Term.t list;
          (** Terms over the source's dimension variables, e.g.
              [quarter(t)] or [r]. *)
      aggr : Stats.Aggregate.t;
      measure : string;  (** the source measure variable *)
      target : string;
    }
  | Table_fn of {
      fn : string;
      params : float list;
      source : string;
      target : string;
    }
  | Outer_combine of {
      left : atom;
      right : atom;
      op : Ops.Binop.t;
      default : float;
      target : string;
    }
      (** The default-value variant of vectorial operators (paper,
          Section 3): the result is defined on the {e union} of the
          operands' dimension tuples, a missing side contributing
          [default].  Not expressible as a (positive) tgd — like
          aggregation, a dedicated dependency shape with a stratified
          semantics. *)

val atom : string -> Term.t list -> atom
val target_relation : t -> string
val source_relations : t -> string list
(** Without duplicates. *)

val is_safe : t -> bool
(** Range restriction: every variable of the right-hand side occurs on
    the left.  [Generate] always produces safe tgds; checked in tests
    and by the chase. *)

val atom_vars : atom -> string list
val equal_atom : atom -> atom -> bool
val atom_to_string : atom -> string
val equal : t -> t -> bool
(** Structural equality. *)

val to_string : t -> string
(** Paper-style logic notation, e.g.
    ["PQR(q, r, p) ∧ RGDPPC(q, r, g) → RGDP(q, r, p * g)"]. *)
