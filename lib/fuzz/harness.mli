(** The differential harness: run one scenario across the configuration
    lattice, diff the results, and shrink any disagreement.

    Every check compares two executions of the same scenario that the
    engine's metatheory says must agree — solutions cube-by-cube, chase
    counters on the columnar axis, diagnostic verdicts on the lint
    axis, degradation status on the faults axis.  A [Disagree] outcome
    is therefore always a bug (in the engine, or — by design — in the
    {!Lattice.Unsafe} fuser used to validate the harness itself). *)

type outcome =
  | Agree
  | Skip of string  (** axis not applicable to this scenario *)
  | Disagree of string  (** human-readable diff summary *)

type check = {
  axis : Lattice.axis;
  fuse : Lattice.fuse_mode;
  outcome : outcome;
}

val check_axis :
  fuse:Lattice.fuse_mode -> Scenario.t -> Lattice.axis -> outcome

val run :
  ?axes:Lattice.axis list ->
  ?fuse:Lattice.fuse_mode ->
  Scenario.t ->
  check list
(** Check the scenario on every requested axis (default: all, safe
    fusion). *)

val replay : Scenario.t -> check list
(** Run the axes recorded in the scenario's own [axes] field (repro
    files store the axis that disagreed, including its fuse mode); all
    axes when the field is empty. *)

val stmt_count : Scenario.t -> int
(** Statements in the scenario's program (repro size metric). *)

val shrink :
  ?budget:int ->
  fuse:Lattice.fuse_mode ->
  axis:Lattice.axis ->
  Scenario.t ->
  Scenario.t
(** Greedily minimize a disagreeing scenario while it still disagrees
    on [axis]: drop statements (with their dependents and now-unused
    declarations and data), drop or halve update batches, drop fault
    triggers, drop data slices.  [budget] caps re-check executions
    (default 300).  Returns the smallest still-disagreeing scenario
    found; the input itself if it does not disagree. *)
