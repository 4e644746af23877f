(** exl-obs: tracing, metrics and run provenance for the pipeline.

    The library is an ambient, nullable sink.  Instrumentation sites
    call {!with_span} / {!count} / {!observe} unconditionally; when no
    collector is installed ({!install} not called) every entry point is
    an atomic load and a branch, so the disabled overhead is a few
    instructions per call site.  Hot inner loops (per-match work in the
    chase) must still aggregate locally and flush at span end. *)

module Clock = Clock
module Json = Json
module Metrics = Metrics
module Trace = Trace
module Provenance = Provenance
module Export = Export

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  provenance : Provenance.t;
  t0 : float;  (** collector creation time, the trace's epoch *)
  spans : bool;  (** whether {!with_span} records into [trace] *)
}

val create : ?spans:bool -> unit -> t
(** A fresh collector.  With [~spans:false] (default [true]) it keeps
    metrics and provenance but no spans: {!with_span} just runs its
    thunk, so a long-lived process that only exports metrics does not
    accumulate one span per instrumented call. *)

val install : t -> unit
(** Make [t] the ambient collector for the whole process. *)

val uninstall : unit -> unit
val get : unit -> t option
val enabled : unit -> bool

val with_collector : t -> (unit -> 'a) -> 'a
(** [install t], run the thunk, then restore the previous collector —
    exception-safe.  Used by tests and the benchmark harness. *)

(** {1 Ambient instrumentation API} — all no-ops when disabled. *)

val count : ?n:int -> string -> unit
val gauge : string -> float -> unit
val observe : ?buckets:float array -> string -> float -> unit
val record_provenance : Provenance.record -> unit

val with_span :
  ?attrs:(string * string) list ->
  ?attrs_after:(unit -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a named span.  Parent links come from a
    per-domain stack (spans nest naturally across [Pool] workers); the
    span's lane is the executing domain's id.  [attrs_after] is
    evaluated when the span closes, for attributes only known at the
    end (round counts, delta sizes).  Exception-safe: the span is
    recorded even if the thunk raises.  Under a collector created with
    [~spans:false] it only runs the thunk. *)
