open Matrix

(** The determination engine (paper, Section 6).

    Maintains the global DAG of dependencies among all stored cubes
    across every registered program; when elementary cubes change, it
    computes the topologically sorted set of derived cubes to
    recalculate and dynamically builds the EXL program to run. *)

type t

val create : unit -> t

val register_source : t -> name:string -> string -> (unit, string) result
(** Parse, check and register EXL source text.  References to cubes
    already in the global graph — including derived cubes of other
    programs — are resolved automatically. *)

val cubes : t -> string list
(** All cubes in the global graph, sorted. *)

val schema : t -> string -> Schema.t option
val kind : t -> string -> Registry.kind option
val sources_of : t -> string -> string list
(** Direct dependencies (edges into the cube). *)

val dependents_of : t -> string -> string list
val derived_order : t -> string list
(** All derived cubes in global definition order (a topological
    order). *)

type dirty_set = {
  changed_elementary : string list;
      (** Elementary cubes the caller reported as changed (sorted). *)
  changed_derived : string list;
      (** Derived cubes the caller reported as changed (sorted) — e.g.
          restored from an external store.  Their new content {e is}
          the change, so they are inputs of the propagation, not
          members of [dirty_derived]. *)
  dirty_derived : string list;
      (** Derived cubes to recompute: the transitive dependents of all
          changed cubes (minus the changed cubes themselves), in
          topological order. *)
}

val dirty_set : t -> changed:string list -> dirty_set
(** Classify a change set: which reported cubes are elementary vs
    derived, and which derived cubes must be recomputed as a
    consequence.  An explicitly changed derived cube is never in
    [dirty_derived] — recomputing it from its (unchanged) sources would
    overwrite exactly the data that changed. *)

val affected : t -> changed:string list -> string list
(** [dirty_derived] of {!dirty_set}: derived cubes that (transitively)
    depend on any changed cube — excluding the changed cubes
    themselves — in topological order; the recomputation set. *)

val build_program :
  t -> cubes:string list -> (Exl.Typecheck.checked, string) result
(** Dynamically build the EXL program computing exactly [cubes] (in
    their global order): inputs that are not recomputed become
    declarations. *)

val partition : assign:(string -> string) -> string list -> (string * string list) list
(** Group a topologically ordered cube list into maximal consecutive
    runs with the same assigned target — the per-target subgraphs the
    dispatcher delegates. *)

val dot : t -> string
(** Graphviz rendering of the dependency DAG (documentation aid). *)
