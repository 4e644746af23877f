(** Dimension partitioning for the sharded chase.

    A plan fixes a shard key (a dimension name), classifies every
    relation of the mapping, and splits the statement tgds into the
    {e shard-local} set — provably evaluable per partition, with the
    per-shard union equal to the global result — and the {e residual}
    set, which the driver runs after the merge.  The classification is
    the co-partitioning check: a tuple-level tgd is local iff every
    atom over a partitioned relation carries one and the same plain
    variable at its relation's shard position (all joins equated on
    the key); an aggregation is local iff its group-by keeps the key;
    an outer combine needs both operands partitioned at the same
    position (or both replicated); a blackbox needs a replicated
    source.  Everything else is named, with a reason, in {!t.reasons}
    and {!report}. *)

open Mappings
open Exchange

type status =
  | Partitioned of int
      (** carries the shard key at this dimension position; each fact
          lives in exactly one shard *)
  | Replicated  (** no shard key; full copy in every shard *)
  | Merged
      (** per-shard union is exactly the global fact set, but the key
          was projected away — unreadable during the shard phase, egd
          checked only after the merge *)
  | Residual  (** computed only by the post-merge residual pass *)

type t = {
  mapping : Mapping.t;
  key : string;
  shards : int;
  range : bool;  (** range partitioning instead of hash *)
  status : (string * status) list;
      (** every source and target relation, sorted by name *)
  local : Tgd.t list;  (** shard-local tgds, statement order *)
  residual : Tgd.t list;  (** cross-shard tgds, statement order *)
  reasons : (string * string) list;
      (** target relation -> why it is residual (or merged) *)
}

val status_to_string : status -> string

val make :
  ?key:string -> ?range:bool -> shards:int -> Mapping.t -> (t, string) result
(** Build a plan.  When [key] is omitted the dimension keeping the
    most tgds shard-local is chosen (ties broken deterministically);
    an explicit [key] must be a dimension of some source relation.
    [Error] when [shards < 2] or no candidate key exists. *)

val report : t -> string
(** Human-readable co-partitioning verdict: every relation's status,
    every local tgd, and every residual tgd with the atom (and reason)
    that breaks locality. *)

val split : t -> Instance.t -> Instance.t array
(** Partition the source instance into [shards] read-only instances:
    partitioned relations scatter on the key value (hash of the
    printed value, or sorted-range cuts when [range]), all others are
    replicated.  The split works on the memoized source batches —
    per-shard row selections sharing the dictionaries, replicated
    relations installed as the same shared batch — so nothing is
    re-encoded. *)
