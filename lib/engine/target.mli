open Matrix

(** Target-system descriptors (paper, Sections 5 and 6).

    Each target declares which tgds it can natively run ("it is not the
    case that all operators are natively supported by all systems"),
    how to render its deployable artifact, and how to execute a
    sub-mapping against cube storage. *)

type artifact =
  | Sql_script of string
  | R_script of string
  | Matlab_script of string
  | Kettle_xml of string
  | Tgd_program of string
      (** the executable schema mapping itself, rendered textually —
          the {!chase} target's deployable artifact *)

val artifact_kind : artifact -> string

type t = {
  name : string;
  supports : Mappings.Tgd.t -> bool;
  translate : Mappings.Mapping.t -> (artifact, string) result;
  execute : Mappings.Mapping.t -> Registry.t -> (Registry.t, string) result;
      (** Run the mapping's tgds; the input registry provides this
          sub-mapping's source relations; the result holds at least
          its derived relations (the target relations minus the
          sources), which are all the dispatcher reads. *)
}

val sql : t
(** The DBMS target: supports every tgd shape (black boxes via tabular
    UDFs), including fused multi-atom tgds.  Runs
    {!Relational.Sql_target.execute}, so its result holds the derived
    relations only.  Every target's [execute] is its backend library's
    mapping-level [execute], which returns an egd violation or arity
    mismatch met while converting cubes as an [Error]; these are also
    what [Core.run] runs.  Likewise each [translate] wraps its
    library's mapping-level translator
    ({!Relational.Sql_target.script_of_mapping} here). *)

val vector : t
(** The R/Matlab target: native statistical operators, at most two
    atoms per tuple-level tgd.  Runs {!Vector.Vector_target.execute}
    (derived relations only). *)

val etl_no_stl : t
(** The ETL target with realistic capabilities: tuple-level operators,
    aggregations, and simple user-defined steps — but {e no} seasonal
    decomposition (off-the-shelf ETL engines lack it), so such tgds must
    be dispatched elsewhere. *)

val etl_full : t
(** The ETL target with user-defined steps covering all black boxes.
    Both ETL targets run {!Etl.Etl_target.execute}. *)

val chase : t
(** The reference engine: runs the sub-mapping directly with the
    semi-naive chase; supports every tgd shape.  Last in the default
    priority order, but first when full observability (chase-round
    spans) is wanted — see exlrun's engine backend. *)

val builtins : t list
(** [sql; vector; etl_no_stl; chase], the default palette.  The default
    {!Dispatcher.default_policy} priority still reads
    [sql; vector; etl], so adding [chase] to the palette changes no
    existing assignment. *)

val find : t list -> string -> t option

val guarded_execute :
  ?faults:Faults.plan ->
  cubes:string list ->
  t ->
  Mappings.Mapping.t ->
  Registry.t ->
  (Registry.t, Faults.kind) result
(** Run [execute] behind the failure model: the fault [plan] (if any)
    is consulted first for an injected {!Faults.kind}; string errors
    from the backend become {!Faults.Execute_error}; an exception
    escaping the backend becomes {!Faults.Worker_crash} labelled with
    the target and cubes.  Never raises. *)
