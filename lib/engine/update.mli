open Matrix

(** Batched elementary-cube updates (the input of
    {!Exlengine.apply_updates}).

    The on-disk form is a line-based text format, one update per line:

    {v
    # revise two daily observations, retract a third
    set PDR 2019-03-14 r001 1012000.5
    set PDR 2019-03-15 r001 1012012.5
    del PDR 2019-03-16 r001
    v}

    [set] upserts the measure at a key (dimension values in schema
    order); [del] retracts the key.  Blank lines and [#] comments are
    ignored.  Each value is read like a CSV cell, by its column's
    domain ({!Matrix.Domain.parse}: a string code such as [040] stays a
    string), and validated against the cube's registered schema,
    so a batch either parses completely or reports the first bad
    line. *)

type action = Set of Value.t | Remove
type t = { cube : string; key : Value.t list; action : action }

val set : cube:string -> key:Value.t list -> Value.t -> t
val remove : cube:string -> key:Value.t list -> t

val concat : t list list -> t list
(** Merge several pending batches into one equivalent batch: the net
    effect of applying their concatenation in order.  At most one
    update per (cube, key) survives, the last action winning — a [set]
    followed by a [del] of the same key nets out to the [del], a [del]
    followed by a [set] to the [set].  Keys keep their first-appearance
    order, so the merge is stable and idempotent.  This is what a
    server commit round feeds to a single
    {!Exlengine.apply_updates} call — compaction works across batch
    boundaries, so opposing updates queued by different clients
    cancel before validation instead of being replayed one by one. *)

val of_string :
  schema_of:(string -> Schema.t option) -> string -> (t list, string) result
(** Parse a batch, resolving each cube's schema through [schema_of]
    (typically {!Determination.schema}); [Error] names the first
    offending line. *)

val to_string : t -> string
(** One line in the text format ([of_string]-compatible). *)
