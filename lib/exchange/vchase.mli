(** Vectorized tgd application over column views: the chase's hot
    path.  A successful run produces the same solution, the same
    counters and bit-identical floats as the row-at-a-time matcher. *)

exception Error of string
(** Converted to the chase's [Error msg] result; messages match the row
    path's. *)

type ctx = {
  read : Instance.t;  (** views come from here *)
  count : int -> unit;  (** matches_examined accumulator *)
  emit : Matrix.Value.t array -> unit;
      (** sink of the facts of the tgd's target, each a fresh array, in
          emission order, with repeats *)
}

val apply : ctx -> Mappings.Tgd.t -> bool
(** Applies the tgd over column views and returns [true] when a kernel
    covers its shape: atoms whose arguments are pairwise-distinct
    variables, in an aggregation (group-by terms over at most one
    encoded dimension each) or a tuple-level tgd of one or two atoms.
    Returns [false], having done nothing, for every other shape, which
    the row matcher then applies.  Once it accepts a shape it commits:
    wide keys go through a composite-key table, never back to rows. *)
