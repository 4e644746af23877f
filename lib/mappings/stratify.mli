(** Stratification of statement tgds (paper, Section 4.2).

    The chase applies tgds "by completely applying the rules
    corresponding to one statement, before considering the next one".
    {!strata} is the order it follows: tgds grouped by the dependency
    depth of their target, whatever their statement order.  {!check}
    is the lint behind E204: it insists that the statement order itself
    is a valid total order, which every generated mapping satisfies. *)

val check : Mapping.t -> (unit, string) result
(** Every tgd's source relations must be source-schema relations or
    targets of earlier tgds, and no relation may be targeted twice. *)

val levels : Mapping.t -> ((string * int) list, string) result
(** Dependency depth of each tgd's target, in statement order: a
    relation no tgd produces has depth 0, a produced one 1 + the
    deepest source of any of its producers.  [Error "relation R
    depends on itself"] when the tgds are recursive. *)

val strata : Mapping.t -> (Tgd.t list list, string) result
(** Tgds grouped by {!levels}, in increasing level order and statement
    order within a level.  A stratum reads only lower strata and holds
    every producer of each of its targets, so its tgds can run in any
    order (in parallel when their targets are distinct).  Fails as
    {!levels} does. *)
