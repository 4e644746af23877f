(** The configuration lattice a scenario is cross-checked against.

    Each axis is one differential comparison between two (or more)
    engine configurations that must agree on every scenario: the
    correctness claims the repository already property-tests, gathered
    behind one enumeration so the fuzz {!Driver} can run them all and
    the CLI can select subsets ([exlc fuzz --axes]). *)

type axis =
  | Roundtrip  (** parse ∘ pretty is the identity (raw and normalized) *)
  | Lint  (** diagnostics are error-free and stable across pretty *)
  | Backends  (** interpreter == chase == sql == vector == etl *)
  | Columnar  (** row chase == columnar chase, counters included *)
  | Optimize  (** optimized mapping == original on the scenario data *)
  | Fusion  (** fused SQL == unfused chase (mode selects the fuser) *)
  | Incremental  (** apply_updates == from-scratch recomputation *)
  | Faults  (** sql-free faulted run == fault-free run, non-degraded *)

val all : axis list
(** Every axis, in the order above. *)

(** How the {!Fusion} axis builds its fused mapping. [Safe] is the
    optimizer's certified fusion ({!Core.fused_mapping_of}), run on the
    SQL target as [exlc --emit sql-fused] ships it; [Unsafe] deliberately
    reintroduces the historical naive aggregation fusion that fails to
    rewrite group-by keys through the unifier — the harness must catch
    it (fault-injection for the fuzzer itself); [Off] skips the axis. *)
type fuse_mode = Safe | Unsafe | Off

val of_spec : string -> (axis * fuse_mode) option
(** Parse an axis spec as written in repro files and [--axes]:
    ["columnar"], ["fusion"], or ["fusion:unsafe"].  The fuse mode is
    [Safe] unless the spec says otherwise; it only matters for
    {!Fusion}. *)

val to_spec : axis -> fuse_mode -> string
(** Inverse of {!of_spec}: ["fusion:unsafe"] for the unsafe fuser, the
    plain axis name otherwise. *)
