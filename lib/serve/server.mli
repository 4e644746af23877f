(** exlserve: the concurrent query/update daemon over the incremental
    engine.

    Threading model (docs/SERVING.md):

    - {e Group commit on the posting threads.}  A POSTed update
      batch is queued; the posting thread then takes the commit lock,
      unless another thread holds it, and commits every queued job,
      round after round, until the queue is empty.  Each round groups its jobs by as-of date and merges each
      group into one compacted batch ({!Engine.Update.concat}), which
      costs one {!Engine.Exlengine.apply_updates} call and one
      {!Snapshot.t} published with one atomic store.  Jobs that queue
      while a round runs ride the next one, with no timer.  A POST
      whose job another thread committed answers as soon as that
      commit wakes it.
    - {e Lock-free reads.}  Every GET resolves against the snapshot
      published by the last commit — readers never take a lock and
      never observe a half-applied batch (snapshot isolation); a
      client whose POST returned 200 sees its write on the very next
      GET (read-your-writes: the reply is sent only after publish).
    - {e Admission control.}  The queue is bounded; when it is full
      the request is rejected immediately with 429 and a
      [Retry-After] hint instead of queueing without bound.  Open
      connections are bounded too: past [max_connections] a new one
      is answered 503 with [Retry-After] and closed.
    - {e Graceful degradation.}  Cubes quarantined by the
      fault/retry/fallback machinery answer 503 with a structured
      diagnostic while healthy cubes keep serving; point-in-time
      reads of a quarantined cube still answer from surviving
      history versions.
    - {e Clean drain.}  {!shutdown} stops accepting, commits what is
      queued, lets in-flight requests finish, then returns. *)

type config = {
  max_queue : int;  (** queued update jobs before 429 (default 64) *)
  request_timeout : float;
      (** socket read/write budget per request, seconds (default 10) *)
  commit_timeout : float;
      (** max seconds a POST waits behind another thread's commit
          before answering 504; its batch stays queued and the commit
          in progress, the next POST or the drain commits it.  A POST
          that commits answers when its commit ends (default 30) *)
  max_connections : int;
      (** open connections beyond which an accepted one is answered
          503 with [Retry-After] and closed, without a thread
          (default 256) *)
  limits : Http.limits;  (** request parser bounds (400/413) *)
  log : (string -> unit) option;
      (** JSONL request-trace sink: one JSON object per request *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?report:Engine.Dispatcher.report ->
  Engine.Exlengine.t ->
  t
(** Wrap a booted engine (programs registered, data loaded,
    recomputed, ideally {!Engine.Exlengine.warm}ed) and publish the
    boot snapshot — [report] (from the boot recompute) seeds the
    quarantine statuses.  No thread is started: commits run on the
    threads that POST.  The engine must not be touched by the caller
    afterwards. *)

val snapshot : t -> Snapshot.t
(** The currently published snapshot (what readers see). *)

val queue_depth : t -> int

val draining : t -> bool

(** {2 Request handling} (transport-independent, used by the tests) *)

type reply = {
  status : int;
  headers : (string * string) list;
  content_type : string;
  body : string;
}

val handle_request : t -> Http.request -> reply
(** Route and answer one parsed request.  POST [/v1/update] blocks
    until the write commits (or times out), committing the queue itself
    when no other thread is; GETs never block on a commit. *)

(** {2 Sockets} *)

val listen_inet :
  ?backlog:int -> host:string -> port:int -> unit -> Unix.file_descr * int
(** Bound + listening TCP socket; returns the actual port (pass
    [port:0] for an ephemeral one). *)

val listen_unix : ?backlog:int -> path:string -> unit -> Unix.file_descr
(** Bound + listening Unix-domain socket (unlinks [path] first). *)

val serve : t -> Unix.file_descr -> unit
(** Accept loop: one thread per connection with keep-alive and
    pipelining, honoring [config.request_timeout]; a connection past
    [config.max_connections] gets a 503 and no thread.  Blocks until
    {!shutdown}; closes the listening socket on exit. *)

val serve_background : t -> Unix.file_descr -> Thread.t

val shutdown : t -> unit
(** Drain: stop accepting, reject new updates with 503, commit what
    is queued (a paused commit goes ahead), finish in-flight requests.
    Idempotent; safe to call from a signal handler's deferred path. *)

val request_shutdown : t -> unit
(** Flip the stop flag, nothing else — the tiny, non-blocking half of
    {!shutdown} a SIGTERM handler can run; the {!serve} loop notices
    within its poll interval and performs the actual drain. *)

(** {2 Test hooks} *)

val pause_commits : t -> unit
(** Hold commits: no thread starts a commit round until
    {!resume_commits} or the drain, so queued updates accumulate and
    their POSTs wait (this is how the tests force 429, 504 and one
    merged commit, and observe snapshot isolation deterministically). *)

val resume_commits : t -> unit
(** Release held commits and wake the waiting POSTs; one of them
    commits the queue. *)

