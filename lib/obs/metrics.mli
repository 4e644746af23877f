(** The metrics registry: counters, gauges, and fixed-bucket histograms.

    A registry is a plain mutable value owned by one collector; all
    operations are thread-safe (dispatcher subgraphs record from pool
    domains).  Metric names are dotted
    (["chase.rounds"]); the Prometheus exporter sanitizes them. *)

type histogram = {
  buckets : float array;  (** ascending upper bounds; +inf is implicit *)
  counts : int array;  (** per-bucket counts, length [buckets + 1] *)
  mutable sum : float;
  mutable total : int;
}

type t

val create : unit -> t

val count : t -> string -> int -> unit
(** Add to a (created-on-first-use) counter. *)

val gauge : t -> string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : ?buckets:float array -> t -> string -> float -> unit
(** Record one observation into a histogram.  [buckets] is consulted
    only when the histogram does not exist yet (default: duration
    buckets from 10us to 10s). *)

val size_buckets : float array
(** Upper bounds for cardinalities (facts, rows): 1 to 1e6. *)

(** {2 Snapshots} (sorted by name, for deterministic export) *)

val counter_value : t -> string -> int
(** 0 when the counter was never touched. *)

val counters : t -> (string * int) list
val gauges : t -> (string * float) list
val histograms : t -> (string * histogram) list
