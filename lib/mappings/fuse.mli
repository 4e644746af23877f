(** Tgd fusion steps: inlining one tgd into the tgd that reads its
    target.

    The paper notes that "in practice, our tool is able to simplify
    them" — statement (5)'s four operators yield one tgd,
    [GDPT(q, r1) ∧ GDPT(q-1, r2) → PCHNG(q, (r1 - r2) * 100 / r1)],
    instead of the four tgds of statements (5a)-(5d).  These are the
    syntactic steps of that simplification.  Neither decides whether a
    step is worth taking or preserves the mapping's solution: the
    optimizer ([Analysis.Optimize]) picks the candidates under its cost
    model and certifies each fusion it keeps by chasing both mappings
    on the critical instance. *)

val fuse_step :
  producer:Tgd.t -> consumer:Tgd.t -> Tgd.t option
(** One inlining step: [None] when the pair is not fusable (non
    tuple-level, or the argument terms on both sides of some position
    are complex). *)

val fuse_step_agg :
  producer:Tgd.t -> consumer:Tgd.t -> Tgd.t option
(** Inline a single-atom tuple-level producer into an aggregation
    consumer, rewriting the group-by keys through the unifier (an
    aggregation over a shifted operand must shift its keys too).
    [None] when the producer has a multi-atom body, computes a
    non-variable measure, or the atoms do not unify. *)
