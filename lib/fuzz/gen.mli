open Matrix

(** Random well-typed EXL programs with matching elementary data.

    Promoted from the test suite's ad-hoc generator: the core theorem
    (chase == interpreter == every target engine) must hold on
    arbitrary well-typed programs, not just the paper's example, and
    every engine configuration added since (semi-naive, incremental,
    optimized, columnar, faulted) multiplies the configurations that
    must agree.  The fuzz {!Harness} runs whole scenarios built on
    these programs through the full configuration lattice.

    Generated programs always parse, type-check and lint without
    errors; the accompanying registry holds elementary data satisfying
    every static precondition (series lengths for seasonal operators,
    join compatibility for vectorial ones), so any divergence found
    downstream is an engine bug, not a generator artifact. *)

type cube_shape = {
  name : string;
  dims : (string * Domain.t) list;
  series_len : int option;
      (** Guaranteed length of every temporal slice, when the cube has
          exactly one temporal dimension and its slices are full,
          contiguous quarter ranges; [None] otherwise.  Gates operators
          with length preconditions (stl needs two periods). *)
}

type profile = {
  elementary : int * int;  (** inclusive range of elementary cube count *)
  statements : int * int;  (** inclusive range of statement count *)
  quarters : int;  (** length of every full temporal series *)
  regions : string list;  (** value pool of the [r] dimension *)
  nested : float;
      (** probability that a statement gets a compound right-hand side
          (nested operators, the normalizer's temp-cube fodder) *)
  exotic_literals : bool;
      (** filter conditions may carry string literals with quotes,
          backslashes and control characters — parse/pretty round-trip
          fodder *)
  keep : float;  (** data density: probability a slice/key is present *)
}

val quick : profile
(** Small data, compound statements on: the default fuzz profile. *)

val deep : profile
(** Longer programs, wider data, exotic literals. *)

val profile_of_name : string -> profile option
(** ["quick"], ["deep"] or ["compat"]. *)

val rand_int : Random.State.t -> int -> int -> int
val pick : Random.State.t -> 'a list -> 'a

val rand_program_and_data :
  ?profile:profile -> Random.State.t -> string * Registry.t
(** One random program (concrete EXL source) plus a registry of its
    elementary cubes filled with matching data.  The default profile
    is the historical [test/gen.ml] distribution (single-operator
    statements only), which the in-tree qcheck properties run on. *)

val program_of_seed : ?profile:profile -> int -> string * Registry.t
(** Derive program and data deterministically from a seed, so failures
    are reproducible from the seed alone. *)
