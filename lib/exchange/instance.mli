open Matrix

(** Relational instances: sets of facts.

    The chase works on raw fact sets — not on the functionally keyed
    {!Matrix.Cube} store — precisely so that egd violations {e can}
    materialize and be detected, mirroring the paper's setting where
    functionality is a constraint to check, not a data-structure
    invariant.

    Nothing in an instance is synchronized: one domain at a time may
    touch it. *)

type fact = Value.t array
(** Dimension values followed by the measure. *)

type t

val create : unit -> t
val add_relation : t -> Schema.t -> unit
(** Declares an empty relation; replaces nothing if it already exists. *)

val schema : t -> string -> Schema.t option

val insert : t -> string -> fact -> bool
(** [true] when the fact was new; set semantics.
    @raise Invalid_argument on arity mismatch or unknown relation. *)

val remove : t -> string -> fact -> bool
(** [true] when the fact was present. *)

val mem : t -> string -> fact -> bool
val copy : t -> t
(** Snapshot.  Row stores are copied; the copy starts with no secondary
    index (each rebuilds on its first use) and with zeroed
    {!index_stats}; column views are shared outright — they are
    immutable.  Snapshots are fully isolated: mutating either side
    never shows through the other. *)

val ensure_index : t -> string -> int list -> unit
(** Build the persistent secondary index of a relation on the given
    (ascending) position list from the facts currently present.  A
    no-op when the index already exists; after creation every
    {!insert}/{!remove} maintains it incrementally. *)

val lookup_index : t -> string -> int list -> Value.t list -> fact list
(** Facts whose values at [positions] equal the given values, via the
    persistent index (created on first use).  No ordering guarantee. *)

val indexed_positions : t -> string -> int list list
(** Position lists currently indexed on a relation (sorted; for tests
    and diagnostics). *)

val index_stats : t -> int * int
(** [(builds, lookups)] of this instance's persistent indexes so far:
    {!ensure_index} calls that built an index, and {!lookup_index}
    calls.  Telemetry readers take it before and after a run and
    report the difference. *)

val iter_facts : t -> string -> (fact -> unit) -> unit
(** Zero-copy iteration over a relation's facts, in no particular
    order; callers must not mutate the arrays. *)

val clear : t -> string -> unit
(** Remove every fact of a relation, keeping its schema and (emptied)
    indexes. *)

val facts : t -> string -> fact list
(** Sorted lexicographically — deterministic iteration. *)

val cardinality : t -> string -> int
val total_facts : t -> int

val view : t -> string -> Cube.view
(** The column view of a relation's current contents, the encoding a
    cube version has ({!Cube.view}): the view installed by {!set_view},
    or the row store's facts sealed into one ({!Cube.seal}: sorted, so
    its {!Cube.key_order} is the identity) and memoized until the next
    mutation.  Kernels walk its
    rows in key order, which is {!facts} order, to replay the row
    engine's iteration exactly. *)

val cached_view : t -> string -> Cube.view option
(** The view of a relation's current contents when one is at hand —
    installed by {!set_view}, or memoized by {!view} since the last
    mutation — without building one. *)

val set_view : t -> Schema.t -> Cube.view -> unit
(** [set_view t schema v] replaces the contents of relation
    [schema.name] with [v] in O(1): the row stores empty out and
    rebuild lazily on the first tuple-level access
    ([mem]/[insert]/[remove]/index ops), while whole-relation reads
    ([facts] in key order, [iter_facts], [cardinality]) serve straight
    from the view.  The rows must be distinct facts whose key order is
    their sorted order — true of a cube version's view, of a sealed one
    ({!Cube.seal}) and of any view from {!view}.
    @raise Invalid_argument when [schema] is not the relation's, or
    the view's arity differs from it. *)

val of_registry : Registry.t -> t
(** Source instance [I] from the elementary cubes of a registry: each
    relation is its cube version's {!Cube.view} (built on first use),
    installed with {!set_view}; no fact list is built and nothing is
    sorted. *)

val cube_of_relation : t -> string -> Cube.t
(** Converts a relation's facts to a cube.
    @raise Cube.Functionality_violation if facts conflict (egd
    violation). *)

val to_registry : t -> elementary:string list -> Registry.t
