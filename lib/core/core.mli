(** EXLEngine — executable schema mappings for statistical data
    processing.

    One-stop public API over the full pipeline of the paper:

    {v
    EXL program ──► schema mapping (tgds + egds) ──► SQL | R | Matlab | ETL
        │                     │
        │                     └─► stratified chase (correctness witness)
        └─► reference interpreter
    v}

    Layered libraries (usable directly for finer control):
    {!Matrix} (cubes), [Stats], [Ops], [Exl] (language), [Mappings],
    [Exchange] (chase), [Relational], [Vector], [Etl], [Engine]
    (determination/dispatch/historicity). *)

type program = Exl.Typecheck.checked
(** A parsed and type-checked EXL program. *)

val compile : string -> (program, string) result
(** Parse and type-check EXL source. *)

val compile_exn : string -> program

val mapping_of : program -> (Mappings.Mapping.t, string) result
(** The generated schema mapping (one extended tgd per normalized
    statement, plus functionality egds). *)

val fused_mapping_of : program -> (Mappings.Mapping.t, string) result
(** The optimizer's mapping ({!Analysis.Optimize.run}): normalizer
    temporaries fused into their consumers where the cost model gains
    (the paper's complex tgd (5) form), every rewrite certified. *)

(** Execution back ends. [Reference] is the direct interpreter; the
    others run the generated mapping on the dispatcher's own targets
    ({!Engine.Target.chase}, [sql], [vector] and [etl_full]); [Chase]
    solves the data-exchange problem. All produce identical cubes
    (property-tested). *)
type backend = Reference | Chase | Sql | Vector_engine | Etl_engine

val backend_name : backend -> string
val all_backends : backend list

val run :
  ?backend:backend ->
  program ->
  Matrix.Registry.t ->
  (Matrix.Registry.t, string) result
(** Run the program against elementary data (default backend:
    [Reference]).  Any other backend generates the mapping once and
    calls its target's [execute] — the code the dispatcher runs —
    then adds the elementary cubes, copied under their declared
    schemas as the interpreter returns them ({!Matrix.Registry.of_sources}).
    Target errors come back without a backend prefix. *)

val verify_all_backends :
  ?eps:float ->
  program ->
  Matrix.Registry.t ->
  (unit, string) result
(** The paper's Section 4.2 equivalence, extended to every back end:
    every backend but [Reference] produces the reference interpreter's
    cubes, else a diff report
    ({!Matrix.Registry.diff}, one line per cube, prefixed with the
    backend's name). *)

(** Deployable artifacts per target system, of a generated mapping.
    Each [*_of] below is its [*_of_mapping] form applied to
    {!mapping_of}; a caller writing several artifacts generates the
    mapping once and passes it to each. *)

val sql_of_mapping : ?fused:bool -> Mappings.Mapping.t -> (string, string) result
(** With [fused], the SQL of the optimizer's mapping, as
    {!fused_mapping_of} gives it. *)

val ddl_of_mapping : Mappings.Mapping.t -> (string, string) result
val r_of_mapping : Mappings.Mapping.t -> (string, string) result
val matlab_of_mapping : Mappings.Mapping.t -> (string, string) result
val kettle_of_mapping : Mappings.Mapping.t -> (string, string) result

val tgds_of_mapping : Mappings.Mapping.t -> (string, string) result
(** The mapping in logic notation (the paper's tgd listing). *)

val sql_of : ?fused:bool -> program -> (string, string) result
val ddl_of : program -> (string, string) result
val r_of : program -> (string, string) result
val matlab_of : program -> (string, string) result
val kettle_of : program -> (string, string) result
val tgds_of : program -> (string, string) result
