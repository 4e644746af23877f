(** Weak-acyclicity check with a machine-verifiable termination
    certificate (E202).

    The dependency graph has a node per (relation, position) of the
    mapping's schemas.  Edges come from the tgds: {e ordinary} when a
    body variable is copied verbatim into a head position, {e special}
    when it feeds a value-creating head term ([Shifted], [Dim_fn],
    [Scalar_fn], [Binapp], [Neg]) or a computed measure (aggregate,
    table function, outer combine).  The mapping is weakly acyclic iff
    no cycle goes through a special edge — the standard sufficient
    condition for chase termination (Fagin et al.), adapted to this
    engine's full-but-computing tgds. *)

type position = { rel : string; idx : int }
type edge_kind = Ordinary | Special

type edge = {
  src : position;
  dst : position;
  kind : edge_kind;
  via : string;  (** target relation of the tgd inducing this edge *)
}

type certificate = {
  positions : position list;
  edges : edge list;
  ranks : (position * int) list;
      (** every edge satisfies [rank dst >= rank src + w], [w] = 1 for
          special edges — a ranking function proving boundedness *)
  max_rank : int;
}

type violation = { cycle : edge list }

val check : Mappings.Mapping.t -> (certificate, violation) result

val verify : certificate -> (unit, string) result
(** Independently re-checks the ranking: every edge must satisfy
    [rank dst >= rank src + w].  A certificate that passes is a proof
    of weak acyclicity regardless of how it was computed. *)

val diagnose : Mappings.Mapping.t -> Diagnostic.t list
(** [[]] if weakly acyclic, else a single [E202] diagnostic with the
    rendered cycle. *)
