(** A reusable domain pool.

    The dispatcher runs the independent subgraphs of a wave as one
    short burst of work; spawning and joining fresh domains per burst
    costs hundreds of microseconds each.  A pool keeps [size] worker
    domains alive across bursts, and the submitting domain helps drain
    the queue, so a burst never waits on a fully occupied (or
    zero-sized) pool. *)

type t

val create : ?size:int -> unit -> t
(** [size] defaults to [Domain.recommended_domain_count () - 1] (at
    least 1): the submitter participates, so the default saturates the
    recommended parallelism.  [size = 0] is legal — every task then
    runs on the submitting domain. *)

exception Missing_result of string
(** Internal invariant breach: a task finished without recording an
    outcome.  Only ever delivered through {!try_all}'s [Error] case —
    the pool never raises it. *)

val try_all : t -> (string * (unit -> 'a)) list -> ('a, string * exn) result list
(** Execute all labelled thunks (on workers and the calling domain) and
    return their outcomes in order.  A task that raises yields
    [Error (label, exn)] instead of poisoning the burst — the label
    tells the caller {e which} unit of work crashed, so worker failures
    can surface as structured [Worker_crash] reports.  Never raises.
    Safe to call from several domains at once. *)

val shutdown : t -> unit
(** Signal workers to exit and join them; idempotent.  Tasks already
    queued are still drained. *)

val shared : unit -> t
(** The lazily created process-wide pool (default size), shut down at
    exit. *)
