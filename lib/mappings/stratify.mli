(** Stratification of statement tgds (paper, Section 4.2).

    The chase applies tgds "by completely applying the rules
    corresponding to one statement, before considering the next one".
    {!strata} is the order it follows: tgds grouped by the dependency
    depth of their target, whatever their statement order.  Each
    relation has one writer at most (E204: one writer per relation),
    and it is a relation the mapping declares: {!levels}, and so
    {!strata}, refuse a mapping that breaks either rule.  {!check} is
    the lint behind E204: it also insists that the statement order
    itself is a valid total order, which every generated mapping
    satisfies. *)

val check : Mapping.t -> (unit, string) result
(** Every tgd's source relations must be source-schema relations or
    targets of earlier tgds, and no relation may be targeted twice. *)

val levels : Mapping.t -> ((string * int) list, string) result
(** Dependency depth of each tgd's target, in statement order: a
    relation no tgd writes has depth 0, a written one 1 + the deepest
    source of its writer.  [Error "relation R is defined twice"] when
    two tgds write [R], an [Error] naming [R] when a tgd writes a
    relation the mapping's [target] does not list, and [Error "relation
    R depends on itself"] when the tgds are recursive. *)

val strata : Mapping.t -> (Tgd.t list list, string) result
(** Tgds grouped by {!levels}, in increasing level order and statement
    order within a level.  A stratum reads only lower strata and holds
    the one writer of each of its targets, so its tgds can run in any
    order.  Fails as {!levels} does. *)
