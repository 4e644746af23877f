open Matrix

(** Reference interpreter: the direct algorithmic semantics of EXL.

    This is the ground truth of the whole reproduction.  Section 4.2 of
    the paper proves that the chase over the generated schema mappings
    produces exactly the output of the statistical program; we verify
    that theorem mechanically by comparing the chase (and every target
    engine) against this interpreter. *)

type value = V_scalar of float | V_cube of Cube.t

val run : Typecheck.checked -> Registry.t -> (Registry.t, Errors.t) result
(** Run a whole checked program.  The input registry provides the
    elementary cubes (missing ones are treated as empty, matching the
    partial-function reading); the result is a fresh registry holding
    elementary and derived cubes.  The input registry is not mutated. *)
