open Matrix

(** A complete fuzz scenario: a generated program, its elementary
    instance, a script of update batches, and an optional fault plan —
    everything one differential run needs.

    Scenarios have a self-contained textual form (the {e repro file})
    so any disagreement the harness finds can be checked in under
    [test/corpus/] and replayed by the test suite without re-running
    the generator: the file embeds the program source, the data as
    [set] lines in {!Engine.Update}'s text format, each update batch,
    and the fault plan in {!Engine.Faults}'s text format. *)

type t = {
  seed : int;  (** generator seed, or [0] for hand-written repros *)
  profile : string;  (** generator profile name, informational *)
  source : string;  (** EXL program text *)
  data : Registry.t;  (** elementary instance *)
  updates : Engine.Update.t list list;  (** update batches, in order *)
  faults : Engine.Faults.plan option;
  axes : string list;
      (** lattice axes to replay ([[]] means every axis), by the names
          [Lattice] prints *)
}

val generate : ?profile:string -> int -> t
(** Derive a whole scenario deterministically from a seed: program and
    data via {!Gen.program_of_seed}'s stream, then update batches
    (measure revisions everywhere; key removals only on non-temporal
    cubes, so series-length preconditions survive) and, half of the
    time, an sql-free fault plan — sql stays clean so fallback keeps
    every run non-degraded and comparable.  [profile] defaults to
    ["quick"]; unknown names fall back to quick. *)

val to_string : t -> string
(** The repro-file form. *)

val of_string : string -> (t, string) result
(** Parse a repro file; [Error] names the offending section or line. *)

val load : string -> (t, string) result
(** [of_string] of a file's contents; [Error] on unreadable files. *)

val save : dir:string -> name:string -> t -> string
(** Write the repro file into [dir] (created if missing) and return its
    path. *)
