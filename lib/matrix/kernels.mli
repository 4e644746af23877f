(** Vectorized kernels over encoded columns: key packing, grouping,
    segmented gather, int-keyed hash join and key order.  Everything
    here works on plain int/float arrays — no [Value.t] or [Tuple.t]
    allocation per row — and leaves semantics (term evaluation, error
    precedence, emission) to the caller, which replays the row engine's
    rules.  The chase and the SQL executor share them.

    A negative input code (a probe value absent from the build-side
    dictionary) poisons its row's key to -1, which every consumer
    treats as "matches nothing". *)

(** {1 Keys} *)

val dense_keys : nrows:int -> int array array -> int array -> int array
(** [dense_keys ~nrows cols radices]: one int key per row, equal exactly
    when the rows' codes are.  Mixed-radix packed
    ([c0 + r0*(c1 + r1*(c2 + ...))]) when the key space fits a 62-bit
    int, otherwise renumbered through a composite-key table — so
    callers never fall back to row-at-a-time processing on wide keys. *)

val joined_keys :
  build_cols:int array array ->
  probe_cols:int array array ->
  nbuild:int ->
  nprobe:int ->
  int array ->
  int array * int array
(** Dense keys for a build/probe pair sharing one key space: probe-side
    composites never seen on the build side map to -1 (match nothing),
    mirroring a hash-index miss. *)

(** {1 Grouping} *)

type groups = {
  gids : int array;  (** row -> group id, ids issued in first-seen row order *)
  n_groups : int;
  rep_rows : int array;  (** group id -> first row carrying it *)
}

val group : int array -> groups

val segment : groups -> float array -> int array * float array
(** Stable segmented gather: bucket the values by group id, preserving
    row order within each group (so per-group accumulation replays the
    row engine's bag order exactly).  Returns [(offsets, data)] with
    group [g]'s values in [data.(offsets.(g)) .. data.(offsets.(g+1))-1]. *)

val read_float : float array -> int -> Value.t -> bool
(** [read_float floats r v]: [floats.(r) <- f] and [true] where
    [Value.to_float v] is [Some f]; [false] where it is [None].  A
    measure read per row, with no option allocated. *)

(** {1 Join} *)

val hash_join :
  build_keys:int array ->
  probe_keys:int array ->
  ?on_probe:(int -> int -> unit) ->
  (int -> int -> unit) ->
  unit
(** Build a multimap over [build_keys], then probe with [probe_keys] in
    row order, calling [f probe_row build_row] per matching pair.
    Negative keys never match (build rows are skipped, probe rows find
    nothing).  [on_probe probe_row bucket_size] fires once per probe row
    before its pairs (size 0 for a poisoned one) — the hook the chase
    uses to count examined candidates exactly like the row path's
    indexed lookups. *)

(** {1 Key order} *)

val ranks : Dict.t -> int array
(** Per code of the dictionary, the rank of its value among the
    dictionary's values under [Value.compare], so comparing ranks
    compares values: distinct codes hold values that are not
    [Value.equal], and equality is [Value.compare] = 0. *)

val sort_rows : (int array * int array) Lazy.t array -> int array -> int array * int
(** [sort_rows columns sel]: the positions [0 .. n-1] of the rows [sel]
    in ascending order of their columns' ranks, column by column, rows
    that tie in [sel] order; and the comparisons that took.
    [columns.(i)] is column [i]'s code per row and rank per code.  A
    later column is forced only when every column before it ties
    somewhere. *)
