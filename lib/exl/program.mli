open Matrix

(** One-stop front end: parse, check, normalize, interpret. *)

val load : string -> (Typecheck.checked, Errors.t) result
(** Parse and type-check EXL source; on failure, the first (by source
    position) of the accumulated errors. *)

val load_all : string -> (Typecheck.checked, Errors.t list) result
(** Like [load] but reports {e every} parse or type error found in one
    run, ordered by source position (the lint driver's entry point). *)

val run_source : string -> Registry.t -> (Registry.t, Errors.t) result
(** Parse, check and interpret against the given elementary data. *)

val load_exn : string -> Typecheck.checked
(** @raise Invalid_argument with the rendered error. Convenience for
    examples and benches. *)
