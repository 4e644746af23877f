(** Cubes: sparse partial functions from dimension tuples to a measure.

    A cube is the paper's central object (Section 3): a statistical
    function [F : X1 x ... x Xn -> Y], stored sparsely.  The functional
    nature — at most one measure per dimension tuple — is the invariant
    the paper's egds enforce; here it is structural (the store is keyed
    by dimension tuple), and [add_strict] reports would-be violations the
    way a failing chase would.

    A cube is versioned: {!copy} and {!with_schema} cost O(1), and the
    copy and the original then read and write independently.  Both
    share the hash table of facts they were taken from, which freezes
    it, and each writes into its own persistent overlay at O(log n) per
    write; a cube whose table nobody shares writes into it directly.
    Once an overlay holds more than one key per eight facts of its
    table, the cube folds the two into a fresh private table, so a
    write copies O(1) facts, amortized.

    The rule that makes sharing safe: nobody writes a cube once it is
    published.  A writer writes a {!copy} of the published cube and
    publishes the copy in its place; the published cube never changes,
    so any number of threads may read it at once, and a reader keeps
    it as long as it likes without copying it. *)

type t

exception Functionality_violation of { cube : string; key : Tuple.t }
(** Raised by [add_strict] when a key is already present with a
    different measure — the counterpart of an egd failure. *)

val guard : (unit -> ('a, string) result) -> ('a, string) result
(** [f ()], with a {!Functionality_violation} or an [Invalid_argument]
    (a cube whose arity differs from its schema) returned as [Error]:
    the one failure channel of every backend's [execute], whose cube
    conversions raise both. *)

val create : Schema.t -> t
(** A fresh empty cube. *)

val schema : t -> Schema.t
val name : t -> string
val cardinality : t -> int

val set : t -> Tuple.t -> Value.t -> unit
(** Insert or replace. [Null] measures are dropped (the function is
    undefined there). *)

val add_strict : t -> Tuple.t -> Value.t -> unit
(** Like [set] but @raise Functionality_violation when the key is bound
    to a different measure (within [Value.equal]). *)

val find : t -> Tuple.t -> Value.t option
val remove : t -> Tuple.t -> unit
val iter : (Tuple.t -> Value.t -> unit) -> t -> unit
val fold : (Tuple.t -> Value.t -> 'a -> 'a) -> t -> 'a -> 'a
val keys : t -> Tuple.t list

val to_alist : t -> (Tuple.t * Value.t) list
(** Sorted by key — deterministic across runs. *)

val select :
  ?limit:int -> filters:(int * Value.t) list -> t -> (Tuple.t * Value.t) list
(** The facts whose key holds value [v] at dimension [i] for every
    [(i, v)] in [filters], sorted by key, and only the first [limit] of
    them: equal to [to_alist c] filtered and truncated to [limit] rows.
    A non-positive [limit] selects nothing.  A filtered read walks the
    shortest {e posting list} of the filtered values (the facts of the
    cube's shared table holding that value, sorted by key), an
    unfiltered one the whole table sorted by key, and stops after
    [limit] rows; then it merges in the overlay's live matching keys.
    A read costs O(limit + overlay), plus the keys of its list that the
    overlay rebinds or another filter rejects, never O(cube).  The
    first filtered read of a dimension builds that dimension's posting
    lists, and the first unfiltered read the ordered table, each in
    O(m log m) for the table's m facts, once per table; building either
    freezes the table. *)

val of_alist : Schema.t -> (Tuple.t * Value.t) list -> t
val of_rows : Schema.t -> Value.t list list -> t
(** Each row is [dims @ [measure]]. *)

val copy : t -> t
(** O(1): the copy shares the facts and overlay of its argument; later
    writes to either one are invisible to the other. *)

val with_schema : Schema.t -> t -> t
(** A {!copy} under another schema (arity must match). *)

(** {1 Column view}

    One encoding of a cube version that every reader shares: the load
    check, the SQL tables, the CSV writer and the chase read it instead
    of walking the boxed facts each on its own. *)

type view = private {
  size : int;  (** rows, in {!iter} order *)
  dicts : Dict.t array;
      (** per key column, its distinct values ([Value.equal]), coded in
          first-seen order *)
  codes : Bytes.t array;
      (** per key column, each row's code in [widths.(i)] bytes (1, 2
          or 4: as few as the column's dictionary needs); read them
          with {!code} *)
  widths : int array;
  measures : Value.t array;  (** [measures.(r)]: row [r]'s measure *)
  exceptions : (int * Value.t) array array;
      (** per key column, rows ascending: [(r, x)] where row [r]'s own
          key [x] is [Value.equal] to its code's first value but not the
          same value ([Int 1] beside [Float 1.], [-0.] beside [0]) *)
  order : int array option Atomic.t;  (** memo of {!key_order} *)
}

val view : t -> view
(** This version's column view, built in one {!iter} pass on first use
    and kept until the next write to this cube.  It is memoized on the
    [t] itself, never on the facts a {!copy} shares, so a copy (or a
    cube installed with {!with_schema}) builds its own.  Readers must
    not write a view's arrays or dictionaries: threads share it.
    @raise Invalid_argument on a key whose arity differs from the
    schema's. *)

val code : view -> int -> int -> int
(** [code v i r]: row [r]'s code in column [i]. *)

val key_value : view -> int -> int -> Value.t
(** [key_value v i r]: row [r]'s own key value in column [i]. *)

val exception_at : view -> int -> int -> Value.t option
(** [exception_at v i r]: row [r]'s key in column [i] when it is on the
    column's exception list. *)

val row : view -> int -> Value.t array
(** [row v r]: row [r]'s own key values followed by its measure, in a
    fresh array. *)

val key_order : view -> int array
(** The view's rows in ascending key order ({!Tuple.compare} of their
    own keys, which is {!to_alist}'s order), rows with equal keys in
    row order.  Built on first use from per-column ranks of the codes
    (a counting sort by the first column, comparisons only inside its
    ties) and kept with the view, like the view with its version;
    counted as [cube.key_orders_built]. *)

type builder
(** A view being written a fact at a time: each key value is
    dictionary-encoded as it arrives, so the facts are never held as
    boxed tuples. *)

val builder : ?size:int -> int -> builder
(** [builder n]: an empty builder of facts with [n] key values each;
    [size] is the rows expected (the arrays grow past it). *)

val add : builder -> Value.t array -> unit
(** Appends a fact: its [n] key values, then its measure.  The values
    are kept, the array is not.
    @raise Invalid_argument on a fact of another width. *)

val seal : builder -> view
(** The view of the facts added, in {!Tuple.compare} order of whole
    facts (keys, then measure), so its {!key_order} is the identity.
    Facts that repeat one added before them ([Value.equal] at every
    position) are dropped, and the first one added stays, each value
    the very one added: the set a {!Tuple.Table} keeps.  Sorted from
    codes, like {!key_order}: facts added in strictly ascending order
    are taken as they are, others by a counting sort by the first key
    column and comparisons only inside its ties; the measures are
    compared only where two keys tie.  This is how a relation of facts that is no cube
    version (a chase's derived relation, a critical instance) gets the
    same encoding as a cube.  The builder must not be used again. *)

val map_measure : (Value.t -> Value.t) -> t -> t
(** Pointwise transform; [Null] results are dropped (partiality). *)

val mapi : (Tuple.t -> Value.t -> (Tuple.t * Value.t) option) -> Schema.t -> t -> t
(** General tuple-level rewrite into a cube with the given schema;
    [None] drops the tuple. @raise Functionality_violation if two source
    tuples collide on the same target key with different measures. *)

val filter : (Tuple.t -> Value.t -> bool) -> t -> t

val merge_join :
  (Value.t -> Value.t -> Value.t) -> Schema.t -> t -> t -> t
(** Natural join on identical dimension tuples, combining the measures —
    the paper's vectorial-operator semantics (result defined only where
    both operands are). *)

val merge_outer :
  (Value.t option -> Value.t option -> Value.t) -> Schema.t -> t -> t -> t
(** Full-outer variant: the combiner runs on the union of the key sets,
    receiving [None] for the missing side — the paper's default-value
    version of vectorial operators. *)

val equal_data : ?eps:float -> t -> t -> bool
(** Same key set and measures equal up to [eps] (default 1e-9) for
    numeric measures, [Value.equal] otherwise.  Schema names are ignored:
    this is the instance-equality used to verify chase vs interpreter vs
    target engines. *)

val diff_data : ?eps:float -> t -> t -> string list
(** Human-readable discrepancies (missing / extra / differing keys),
    capped at 20 entries; empty iff [equal_data]. *)
