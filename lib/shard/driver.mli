(** The sharded chase driver (see [docs/SHARDING.md]).

    Partition the source on the plan's shard key, chase the shard-local
    tgds on every shard independently (one executor task per shard),
    union the shard solutions deterministically, then run the residual
    tgds and the deferred functionality egds stratum by stratum.  The
    solution equals the unsharded chase's (property-tested); the
    [stats] are aggregates over the shards plus the residual pass. *)

open Mappings
open Exchange

val run :
  ?executor:((unit -> unit) list -> unit) ->
  ?key:string ->
  ?range:bool ->
  shards:int ->
  Mapping.t ->
  Instance.t ->
  (Instance.t * Chase.stats, string) result
(** The sharded chase.  [shards <= 1] is exactly {!Chase.run} — no plan
    is built — so unsharded callers pay nothing for going through here.
    Otherwise the source is partitioned on [key] (chosen by
    {!Partition.make} when omitted; [range] switches hash partitioning
    to range cuts) and [executor] receives one task per shard (it also
    runs the residual pass's per-stratum parallelism).  Falls back to
    the plain chase when no key exists or the plan leaves no tgd
    shard-local; an explicit [key] that cannot partition is an
    [Error], and so are recursive tgds, as in {!Chase.run}.  Every
    phase is columnar. *)
