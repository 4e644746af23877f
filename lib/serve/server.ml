open Matrix
module J = Obs.Json

type config = {
  max_queue : int;
  request_timeout : float;
  commit_timeout : float;
  max_connections : int;
  limits : Http.limits;
  log : (string -> unit) option;
}

let default_config =
  {
    max_queue = 64;
    request_timeout = 10.;
    commit_timeout = 30.;
    max_connections = 256;
    limits = Http.default_limits;
    log = None;
  }

(* One queued update batch.  Whichever thread commits it writes the
   outcome (the report and the sequence number of the snapshot that
   includes it) under [qmutex]. *)
type job = {
  job_updates : Engine.Update.t list;
  job_as_of : Calendar.Date.t;
  mutable job_outcome :
    (Engine.Exlengine.update_report * int, string) result option;
}

type t = {
  engine : Engine.Exlengine.t;
  config : config;
  snap : Snapshot.t Atomic.t;
  qmutex : Mutex.t;
  (* [queue], [committing], [paused], [waiters] and every queued job's
     outcome are guarded by [qmutex]. *)
  queue : job Queue.t;
  mutable committing : bool;
      (* the commit lock: a thread is committing the queue *)
  mutable paused : bool;
  mutable waiters : Unix.file_descr list;
      (* the write ends of the pipes that blocked POSTs sleep on *)
  stop : bool Atomic.t;
  drain_claimed : bool Atomic.t;
  inflight : int Atomic.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  cmutex : Mutex.t;
  mutable conn_id : int;
}

let snapshot t = Atomic.get t.snap
let queue_depth t = Mutex.protect t.qmutex (fun () -> Queue.length t.queue)
let draining t = Atomic.get t.stop

(* Wake every POST blocked in [wait_for_commit]; [qmutex] held. *)
let wake_all t =
  List.iter (fun w -> ignore (Unix.write_substring w "!" 0 1)) t.waiters;
  t.waiters <- []

(* Sleep until [wake_all] runs or [deadline] passes; [qmutex] held on
   entry and on return.  [Condition.wait] has no timeout, so each
   sleeper waits on a pipe of its own. *)
let wait_for_commit t ~deadline =
  let r, w = Unix.pipe ~cloexec:true () in
  t.waiters <- w :: t.waiters;
  Mutex.unlock t.qmutex;
  let timeout =
    if deadline = infinity then -1.
    else Float.max 0. (deadline -. Unix.gettimeofday ())
  in
  (try ignore (Unix.select [ r ] [] [] timeout)
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  Mutex.lock t.qmutex;
  t.waiters <- List.filter (( <> ) w) t.waiters;
  Unix.close r;
  Unix.close w

let pause_commits t = Mutex.protect t.qmutex (fun () -> t.paused <- true)

let resume_commits t =
  Mutex.protect t.qmutex (fun () ->
      t.paused <- false;
      wake_all t)

(* ----- JSON rendering ----- *)

let value_json (v : Value.t) : J.t =
  match v with
  | Value.Null -> J.Null
  | Value.Bool b -> J.Bool b
  | Value.Int i -> J.Num (float_of_int i)
  | Value.Float f -> J.Num f
  | Value.String s -> J.Str s
  | Value.Date _ | Value.Period _ -> J.Str (Value.to_string v)

let schema_json (schema : Schema.t) : J.t =
  J.Obj
    [
      ( "dims",
        J.List
          (Array.to_list schema.Schema.dims
          |> List.map (fun (d : Schema.dimension) ->
                 J.Obj
                   [
                     ("name", J.Str d.Schema.dim_name);
                     ("domain", J.Str (Domain.to_string d.Schema.dim_domain));
                   ])) );
      ("measure", J.Str schema.Schema.measure_name);
      ( "measure_domain",
        J.Str (Domain.to_string schema.Schema.measure_domain) );
    ]

let error_body status reason =
  J.to_string
    (J.Obj [ ("error", J.Str reason); ("status", J.Num (float_of_int status)) ])

type reply = {
  status : int;
  headers : (string * string) list;
  content_type : string;
  body : string;
}

let reply ?(headers = []) ?(content_type = "application/json") status body =
  { status; headers; content_type; body }

let error_reply ?headers status reason =
  reply ?headers status (error_body status reason)

let cube_json ?limit ~filters ~seq ~name (entry : Snapshot.entry) cube =
  let rows = Cube.select ?limit ~filters cube in
  J.to_string
    (J.Obj
       [
         ("cube", J.Str name);
         ("kind", J.Str (Registry.kind_to_string entry.Snapshot.kind));
         ("schema", schema_json entry.Snapshot.schema);
         ( "rows",
           J.List
             (List.map
                (fun (tuple, v) ->
                  J.List
                    (List.map value_json (Tuple.to_list tuple)
                    @ [ value_json v ]))
                rows) );
         ("cardinality", J.Num (float_of_int (Cube.cardinality cube)));
         ("returned", J.Num (float_of_int (List.length rows)));
         ("seq", J.Num (float_of_int seq));
       ])

let quarantine_json name (fr : Engine.Faults.failure_report option) =
  let diagnostic =
    match fr with
    | None -> J.Null
    | Some f ->
        J.Obj
          [
            ("target", J.Str f.Engine.Faults.f_target);
            ( "stage",
              J.Str (Engine.Faults.stage_to_string f.Engine.Faults.f_stage) );
            ( "failure",
              J.Str (Engine.Faults.kind_to_string f.Engine.Faults.f_kind) );
            ("attempts", J.Num (float_of_int f.Engine.Faults.f_attempts));
          ]
  in
  J.to_string
    (J.Obj
       [
         ("error", J.Str "quarantined");
         ("cube", J.Str name);
         ("status", J.Num 503.);
         ("diagnostic", diagnostic);
       ])

let status_string = function
  | Snapshot.Healthy -> "healthy"
  | Snapshot.Quarantined _ -> "quarantined"
  | Snapshot.Skipped () -> "skipped"

(* ----- read endpoints ----- *)

(* Dimension filters come in as query parameters named after the
   cube's dimensions, each value read by its dimension's domain;
   [limit] caps the row count.  Anything else — a typo, or a value
   outside the domain — is a client error, so it fails loudly instead
   of silently returning the wrong slice. *)
let parse_filters (entry : Snapshot.entry) (req : Http.request) =
  let schema = entry.Snapshot.schema in
  List.fold_left
    (fun acc (k, v) ->
      match acc with
      | Error _ -> acc
      | Ok (limit, filters) -> (
          if k = "limit" then
            match int_of_string_opt v with
            | Some n when n >= 0 -> Ok (Some n, filters)
            | _ -> Error "limit must be a non-negative integer"
          else
            match Schema.dim_index schema k with
            | None -> Error (Printf.sprintf "unknown query parameter %s" k)
            | Some i -> (
                let dom = schema.Schema.dims.(i).Schema.dim_domain in
                match Domain.parse dom v with
                | Some x when Domain.member x dom -> Ok (limit, (i, x) :: filters)
                | _ ->
                    Error
                      (Printf.sprintf "%s=%s: not a %s" k v (Domain.to_string dom)))))
    (Ok (None, []))
    req.Http.query

let degraded_reply name (entry : Snapshot.entry) =
  match entry.Snapshot.status with
  | Snapshot.Healthy -> None
  | Snapshot.Quarantined fr ->
      Some (reply 503 (quarantine_json name fr))
  | Snapshot.Skipped () ->
      Some
        (error_reply 503
           (Printf.sprintf "cube %s skipped: upstream quarantine" name))

let read_cube t ~as_of name req =
  let snap = snapshot t in
  match Snapshot.find snap name with
  | None -> error_reply 404 (Printf.sprintf "unknown cube %s" name)
  | Some entry -> (
      match parse_filters entry req with
      | Error msg -> error_reply 400 msg
      | Ok (limit, filters) -> (
          let render cube =
            reply 200
              (cube_json ?limit ~filters ~seq:(Snapshot.seq snap) ~name entry
                 cube)
          in
          match as_of with
          | None -> (
              match degraded_reply name entry with
              | Some r -> r
              | None -> (
                  match entry.Snapshot.current with
                  | Some cube -> render cube
                  | None ->
                      error_reply 404
                        (Printf.sprintf "no data for cube %s" name)))
          | Some date -> (
              (* Point-in-time reads answer from materialized history
                 versions even while the cube is quarantined — old
                 versions survive a failed recomputation. *)
              match Snapshot.as_of entry date with
              | Some cube -> render cube
              | None -> (
                  match degraded_reply name entry with
                  | Some r -> r
                  | None ->
                      error_reply 404
                        (Printf.sprintf "no version of %s as of %s" name
                           (Calendar.Date.to_string date))))))

let read_sdmx t ~dsd name req =
  let snap = snapshot t in
  match Snapshot.find snap name with
  | None -> error_reply 404 (Printf.sprintf "unknown cube %s" name)
  | Some entry -> (
      if dsd then
        reply ~content_type:"application/xml" 200
          (Sdmx.dsd_of_schema entry.Snapshot.schema)
      else
        match degraded_reply name entry with
        | Some r -> r
        | None -> (
            match entry.Snapshot.current with
            | None -> error_reply 404 (Printf.sprintf "no data for cube %s" name)
            | Some cube -> (
                match parse_filters entry req with
                | Error msg -> error_reply 400 msg
                | Ok (_, filters) ->
                    let cube =
                      if filters = [] then cube
                      else
                        Cube.of_alist (Cube.schema cube)
                          (Cube.select ~filters cube)
                    in
                    reply ~content_type:"application/xml" 200
                      (Sdmx.generic_data_of_cube cube))))

let catalog t =
  let snap = snapshot t in
  let entries =
    List.map
      (fun name ->
        let entry = Option.get (Snapshot.find snap name) in
        J.Obj
          [
            ("name", J.Str name);
            ("kind", J.Str (Registry.kind_to_string entry.Snapshot.kind));
            ("status", J.Str (status_string entry.Snapshot.status));
            ( "cardinality",
              match entry.Snapshot.current with
              | Some cube -> J.Num (float_of_int (Cube.cardinality cube))
              | None -> J.Null );
            ( "versions",
              J.Num (float_of_int (List.length entry.Snapshot.versions)) );
          ])
      (Snapshot.names snap)
  in
  reply 200
    (J.to_string
       (J.Obj
          [
            ("seq", J.Num (float_of_int (Snapshot.seq snap)));
            ("cubes", J.List entries);
          ]))

let healthz t =
  reply 200
    (J.to_string
       (J.Obj
          [
            ("status", J.Str (if draining t then "draining" else "ok"));
            ("seq", J.Num (float_of_int (Snapshot.seq (snapshot t))));
            ("queue_depth", J.Num (float_of_int (queue_depth t)));
          ]))

let metrics_reply () =
  match Obs.get () with
  | Some c ->
      reply ~content_type:"text/plain; version=0.0.4" 200
        (Obs.Export.prometheus c.Obs.metrics)
  | None ->
      reply ~content_type:"text/plain; version=0.0.4" 200
        "# no collector installed\n"

let index () =
  reply 200
    (J.to_string
       (J.Obj
          [
            ("service", J.Str "exlserve");
            ( "endpoints",
              J.List
                (List.map
                   (fun s -> J.Str s)
                   [
                     "GET /healthz";
                     "GET /metrics";
                     "GET /v1/cubes";
                     "GET /v1/cube/:name?dim=value&limit=n";
                     "GET /v1/cube/:name/asof/:date";
                     "GET /v1/sdmx/:name";
                     "GET /v1/sdmx/:name/dsd";
                     "POST /v1/update";
                   ]) );
          ]))

(* ----- update endpoint ----- *)

let today () =
  let tm = Unix.gmtime (Unix.time ()) in
  Calendar.Date.make ~year:(tm.Unix.tm_year + 1900) ~month:(tm.Unix.tm_mon + 1)
    ~day:tm.Unix.tm_mday

(* A JSON scalar as a value of domain [dom]: a string is read by the
   domain (a string code such as "040" stays a string); text that does
   not parse stays a string, which validation then rejects. *)
let value_of_json dom (j : J.t) =
  match j with
  | J.Str s -> Ok (Option.value ~default:(Value.String s) (Domain.parse dom s))
  | J.Num n ->
      Ok
        (if Float.is_integer n && Float.abs n < 1e15 then
           Value.Int (int_of_float n)
         else Value.Float n)
  | J.Bool b -> Ok (Value.Bool b)
  | J.Null -> Ok Value.Null
  | J.List _ | J.Obj _ -> Error "keys and values must be scalars"

let rec result_map f = function
  | [] -> Ok []
  | x :: rest -> (
      match f x with
      | Error _ as e -> e
      | Ok y -> (
          match result_map f rest with
          | Error _ as e -> e
          | Ok ys -> Ok (y :: ys)))

let update_of_json ~schema_of (j : J.t) =
  match j with
  | J.Obj _ -> (
      match (J.member "cube" j, J.member "key" j) with
      | Some (J.Str cube), Some (J.List key) -> (
          (* An unknown cube or a key of the wrong arity reads as [Any];
             validation rejects it. *)
          let dims, measure =
            match schema_of cube with
            | Some schema ->
                ( Array.map (fun d -> d.Schema.dim_domain) schema.Schema.dims,
                  schema.Schema.measure_domain )
            | None -> ([||], Domain.Any)
          in
          let dim i = if i < Array.length dims then dims.(i) else Domain.Any in
          match result_map Fun.id (List.mapi (fun i k -> value_of_json (dim i) k) key)
          with
          | Error _ as e -> e
          | Ok key -> (
              match (J.member "value" j, J.member "delete" j) with
              | Some v, None -> (
                  match value_of_json measure v with
                  | Error _ as e -> e
                  | Ok v -> Ok (Engine.Update.set ~cube ~key v))
              | None, Some (J.Bool true) ->
                  Ok (Engine.Update.remove ~cube ~key)
              | _ -> Error "update needs either \"value\" or \"delete\": true"))
      | _ -> Error "update needs \"cube\" and \"key\" fields")
  | _ -> Error "each update must be an object"

(* The JSON batch form: either a bare list of updates or an object
   {"updates": [...], "as_of": "YYYY-MM-DD"}. *)
let updates_of_json ~schema_of text =
  match J.parse text with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok j -> (
      let items, as_of =
        match j with
        | J.List l -> (Some l, None)
        | J.Obj _ -> (
            ( (match J.member "updates" j with
              | Some (J.List l) -> Some l
              | _ -> None),
              match J.member "as_of" j with
              | Some (J.Str s) -> Some s
              | _ -> None ))
        | _ -> (None, None)
      in
      match items with
      | None -> Error "expected a list of updates or an \"updates\" field"
      | Some items -> (
          match result_map (update_of_json ~schema_of) items with
          | Error _ as e -> e
          | Ok updates -> (
              match as_of with
              | None -> Ok (updates, None)
              | Some s -> (
                  match Calendar.Date.of_string s with
                  | Some d -> Ok (updates, Some d)
                  | None -> Error (Printf.sprintf "invalid as_of date %s" s)))))

let parse_update_body t (req : Http.request) =
  let content_type =
    Option.value ~default:"text/plain" (Http.header req "content-type")
  in
  let is_json =
    String.length content_type >= 16
    && String.sub content_type 0 16 = "application/json"
  in
  let schema_of =
    Engine.Determination.schema (Engine.Exlengine.determination t.engine)
  in
  let from_body =
    if is_json then updates_of_json ~schema_of req.Http.body
    else
      Result.map
        (fun updates -> (updates, None))
        (Engine.Update.of_string ~schema_of req.Http.body)
  in
  match from_body with
  | Error _ as e -> e
  | Ok (updates, body_as_of) -> (
      match Http.query_param req "as_of" with
      | None -> Ok (updates, body_as_of)
      | Some s -> (
          match Calendar.Date.of_string s with
          | Some d -> Ok (updates, Some d)
          | None -> Error (Printf.sprintf "invalid as_of date %s" s)))

let enqueue t job =
  Mutex.lock t.qmutex;
  if Atomic.get t.stop then begin
    Mutex.unlock t.qmutex;
    `Draining
  end
  else if Queue.length t.queue >= t.config.max_queue then begin
    Mutex.unlock t.qmutex;
    Obs.count "serve.http_429";
    `Full
  end
  else begin
    Queue.push job t.queue;
    Obs.gauge "serve.queue_depth" (float_of_int (Queue.length t.queue));
    Mutex.unlock t.qmutex;
    `Queued
  end

let update_report_json (r : Engine.Exlengine.update_report) seq =
  J.to_string
    (J.Obj
       [
         ("committed", J.Bool true);
         ("seq", J.Num (float_of_int seq));
         ("updated", J.List (List.map (fun s -> J.Str s) r.Engine.Exlengine.updated));
         ( "recomputed",
           J.List (List.map (fun s -> J.Str s) r.Engine.Exlengine.recomputed) );
         ("facts_changed", J.Num (float_of_int r.Engine.Exlengine.facts_changed));
         ( "facts_rederived",
           J.Num (float_of_int r.Engine.Exlengine.facts_rederived) );
         ("total_facts", J.Num (float_of_int r.Engine.Exlengine.total_facts));
         ("cache_hit", J.Bool r.Engine.Exlengine.cache_hit);
         ( "strata_skipped",
           J.Num (float_of_int r.Engine.Exlengine.strata_skipped) );
         ( "strata_rederived",
           J.Num (float_of_int r.Engine.Exlengine.strata_rederived) );
       ])

let retry_after = [ ("retry-after", "1") ]

(* ----- group commit ----- *)

(* Consecutive jobs with the same as-of date commit as one compacted
   batch; a date change splits the run so history versions land under
   the dates their clients asked for, in arrival order. *)
let rec group_by_as_of = function
  | [] -> []
  | j :: rest ->
      let rec span acc = function
        | k :: more when Calendar.Date.equal k.job_as_of j.job_as_of ->
            span (k :: acc) more
        | more -> (List.rev acc, more)
      in
      let same, others = span [ j ] rest in
      (j.job_as_of, same) :: group_by_as_of others

let publish t (r : Engine.Exlengine.update_report) =
  let touched = r.Engine.Exlengine.updated @ r.Engine.Exlengine.recomputed in
  let snap = Snapshot.publish ~prev:(Atomic.get t.snap) ~touched t.engine in
  Atomic.set t.snap snap;
  Obs.count "serve.commits";
  Obs.gauge "serve.snapshot_seq" (float_of_int (Snapshot.seq snap));
  Snapshot.seq snap

(* Total: every job of the group gets an outcome, so no POST waits on a
   job that left the queue without one. *)
let commit_group t (as_of, jobs) =
  let batch =
    Engine.Update.concat (List.map (fun j -> j.job_updates) jobs)
  in
  Obs.observe ~buckets:Obs.Metrics.size_buckets "serve.coalesced_batch"
    (float_of_int (List.length batch));
  Obs.count ~n:(List.length jobs) "serve.coalesced_jobs";
  let outcome =
    try
      Result.map
        (fun r -> (r, publish t r))
        (Engine.Exlengine.apply_updates ~as_of t.engine batch)
    with exn -> Error (Printexc.to_string exn)
  in
  if Result.is_error outcome then Obs.count "serve.commit_errors";
  Mutex.protect t.qmutex (fun () ->
      List.iter (fun j -> j.job_outcome <- Some outcome) jobs;
      wake_all t)

(* Commits are held from [pause_commits] until [resume_commits] or the
   drain starts. *)
let commits_held t = t.paused && not (Atomic.get t.stop)

(* Commit every queued job, round after round, until the queue is empty
   or commits are held: jobs that queue during a round ride the next. *)
let rec commit_queued t =
  let jobs =
    Mutex.protect t.qmutex (fun () ->
        if commits_held t then []
        else begin
          let jobs = List.of_seq (Queue.to_seq t.queue) in
          Queue.clear t.queue;
          jobs
        end)
  in
  if jobs <> [] then begin
    Obs.gauge "serve.queue_depth" 0.;
    List.iter (commit_group t) (group_by_as_of jobs);
    commit_queued t
  end

(* Take the commit lock and commit the queue; [qmutex] held on entry
   and on return.  [commit_queued] cannot raise: [commit_group] is
   total. *)
let hold_commit_lock t =
  t.committing <- true;
  Mutex.unlock t.qmutex;
  commit_queued t;
  Mutex.lock t.qmutex;
  t.committing <- false;
  wake_all t

(* A POST whose job is still queued and finds the commit lock free
   commits the queue itself.  Otherwise it sleeps until a commit wakes
   it and gives up at the deadline ([None]); its job stays queued for
   the commit in progress, the next POST or the drain. *)
let await_commit t job =
  let deadline = Unix.gettimeofday () +. t.config.commit_timeout in
  Mutex.protect t.qmutex (fun () ->
      let rec loop () =
        match job.job_outcome with
        | Some _ as outcome -> outcome
        | None when not (t.committing || commits_held t) ->
            hold_commit_lock t;
            loop ()
        | None when Unix.gettimeofday () >= deadline -> None
        | None ->
            wait_for_commit t ~deadline;
            loop ()
      in
      loop ())

let handle_update t (req : Http.request) =
  if draining t then error_reply 503 "draining"
  else
    match parse_update_body t req with
    | Error msg -> error_reply 400 msg
    | Ok (updates, as_of) -> (
        match Engine.Exlengine.validate_updates t.engine updates with
        | Error msg -> error_reply 400 msg
        | Ok () ->
            if updates = [] then
              reply 200
                (J.to_string
                   (J.Obj
                      [
                        ("committed", J.Bool true);
                        ("seq", J.Num (float_of_int (Snapshot.seq (snapshot t))));
                        ("updated", J.List []);
                        ("recomputed", J.List []);
                        ("facts_changed", J.Num 0.);
                      ]))
            else
              let job =
                {
                  job_updates = updates;
                  job_as_of = Option.value ~default:(today ()) as_of;
                  job_outcome = None;
                }
              in
              (match enqueue t job with
              | `Draining -> error_reply 503 "draining"
              | `Full ->
                  error_reply ~headers:retry_after 429
                    "update queue full, retry later"
              | `Queued -> (
                  match await_commit t job with
                  | Some (Ok (r, seq)) -> reply 200 (update_report_json r seq)
                  | Some (Error msg) -> error_reply 500 msg
                  | None ->
                      error_reply 504
                        "commit timed out (the batch stays queued and \
                         still applies)")))

(* ----- router ----- *)

let route t (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "GET", [] -> index ()
  | "GET", [ "healthz" ] -> healthz t
  | "GET", [ "metrics" ] -> metrics_reply ()
  | "GET", [ "v1"; "cubes" ] -> catalog t
  | "GET", [ "v1"; "cube"; name ] -> read_cube t ~as_of:None name req
  | "GET", [ "v1"; "cube"; name; "asof"; date ] -> (
      match Calendar.Date.of_string date with
      | Some d -> read_cube t ~as_of:(Some d) name req
      | None -> error_reply 400 (Printf.sprintf "invalid date %s" date))
  | "GET", [ "v1"; "sdmx"; name ] -> read_sdmx t ~dsd:false name req
  | "GET", [ "v1"; "sdmx"; name; "dsd" ] -> read_sdmx t ~dsd:true name req
  | "POST", [ "v1"; "update" ] -> handle_update t req
  | ("GET" | "HEAD" | "POST"), _ -> error_reply 404 "not found"
  | _ -> error_reply 405 "method not allowed"

let handle_request t req =
  let t0 = Unix.gettimeofday () in
  Obs.count "serve.requests";
  let r =
    try route t req
    with exn ->
      (* The router is total by construction; this is the backstop
         that keeps one bad request from killing its connection. *)
      error_reply 500 (Printexc.to_string exn)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Obs.observe "serve.request_seconds" dt;
  Obs.count (Printf.sprintf "serve.responses_%dxx" (r.status / 100));
  (match t.config.log with
  | None -> ()
  | Some sink ->
      sink
        (J.to_string
           (J.Obj
              [
                ("t", J.Num t0);
                ("method", J.Str req.Http.meth);
                ("path", J.Str req.Http.target);
                ("status", J.Num (float_of_int r.status));
                ("seconds", J.Num dt);
                ("bytes", J.Num (float_of_int (String.length r.body)));
              ])));
  r

let create ?(config = default_config) ?report engine =
  {
    engine;
    config;
    snap = Atomic.make (Snapshot.capture ?report engine);
    qmutex = Mutex.create ();
    queue = Queue.create ();
    committing = false;
    paused = false;
    waiters = [];
    stop = Atomic.make false;
    drain_claimed = Atomic.make false;
    inflight = Atomic.make 0;
    conns = Hashtbl.create 32;
    cmutex = Mutex.create ();
    conn_id = 0;
  }

(* ----- sockets ----- *)

let listen_inet ?(backlog = 128) ~host ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd backlog;
  let actual =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, actual)

let listen_unix ?(backlog = 128) ~path () =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd backlog;
  fd

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let register_conn t fd =
  Mutex.lock t.cmutex;
  t.conn_id <- t.conn_id + 1;
  let id = t.conn_id in
  Hashtbl.replace t.conns id fd;
  Mutex.unlock t.cmutex;
  id

let unregister_conn t id =
  Mutex.lock t.cmutex;
  Hashtbl.remove t.conns id;
  Mutex.unlock t.cmutex

(* Per-connection loop: keep-alive with pipelining.  The parse buffer
   is bounded by the parser's own limits — a Failed verdict answers
   and closes, so a hostile peer cannot grow it without bound. *)
let connection t fd =
  let id = register_conn t fd in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.request_timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.request_timeout;
     let chunk = Bytes.create 8192 in
     let data = ref "" in
     let closing = ref false in
     (try
        while not !closing do
          match Http.parse ~limits:t.config.limits !data 0 with
          | Http.Complete (req, consumed) ->
              data :=
                String.sub !data consumed (String.length !data - consumed);
              let r = handle_request t req in
              let close_after =
                Http.wants_close req || Atomic.get t.stop
              in
              let headers =
                ( "connection",
                  if close_after then "close" else "keep-alive" )
                :: r.headers
              in
              write_all fd
                (Http.response ~headers ~content_type:r.content_type
                   ~status:r.status r.body);
              if close_after then closing := true
          | Http.Failed e ->
              Obs.count "serve.parse_errors";
              write_all fd
                (Http.response
                   ~headers:[ ("connection", "close") ]
                   ~status:e.Http.status
                   (error_body e.Http.status e.Http.reason));
              closing := true
          | Http.Incomplete ->
              let n = Unix.read fd chunk 0 (Bytes.length chunk) in
              if n = 0 then closing := true
              else data := !data ^ Bytes.sub_string chunk 0 n
        done
      with
     | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
       ->
         (* Read timed out.  Mid-request gets a 408; an idle
            keep-alive connection is just closed. *)
         if !data <> "" then (
           try
             write_all fd
               (Http.response
                  ~headers:[ ("connection", "close") ]
                  ~status:408 (error_body 408 "request timed out"))
           with _ -> ())
     | Unix.Unix_error _ | Sys_error _ | End_of_file -> ())
   with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  unregister_conn t id;
  Atomic.decr t.inflight

(* Over the connection cap: answer 503 on the accepting thread and
   close.  The reply is one small write into an empty socket buffer, so
   it does not block the accept loop. *)
let refuse_busy fd =
  Obs.count "serve.connections_refused";
  (try
     write_all fd
       (Http.response
          ~headers:(("connection", "close") :: retry_after)
          ~status:503
          (error_body 503 "too many connections, retry later"))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let rec wait_until ~deadline cond =
  cond ()
  ||
  if Unix.gettimeofday () > deadline then false
  else begin
    Thread.delay 0.002;
    wait_until ~deadline cond
  end

let drain t =
  (* Commit the queue on this thread once the commit in progress, if
     any, has finished ([stop] is set: nothing queues any more, and
     held commits go ahead).  Then give in-flight requests a grace
     period, shut lingering connections down hard (wakes any thread
     blocked in read) and wait for the threads to exit. *)
  Mutex.protect t.qmutex (fun () ->
      while t.committing do
        wait_for_commit t ~deadline:infinity
      done;
      hold_commit_lock t);
  let deadline = Unix.gettimeofday () +. t.config.request_timeout +. 1. in
  let grace = Unix.gettimeofday () +. 0.5 in
  ignore (wait_until ~deadline:grace (fun () -> Atomic.get t.inflight = 0));
  Mutex.lock t.cmutex;
  Hashtbl.iter
    (fun _ fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.conns;
  Mutex.unlock t.cmutex;
  ignore (wait_until ~deadline (fun () -> Atomic.get t.inflight = 0))

(* Whoever claims the drain first performs it — the stop flag alone
   cannot gate this, or a [request_shutdown] (signal handler) would
   leave nobody draining when [serve] unwinds. *)
let shutdown t =
  Atomic.set t.stop true;
  if not (Atomic.exchange t.drain_claimed true) then drain t

let request_shutdown t = Atomic.set t.stop true

let serve t fd =
  (* A dead client must surface as EPIPE on write, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try
     while not (Atomic.get t.stop) do
       match Unix.select [ fd ] [] [] 0.1 with
       | [], _, _ -> ()
       | _ -> (
           match Unix.accept ~cloexec:true fd with
           | client, _ when Atomic.get t.inflight >= t.config.max_connections ->
               refuse_busy client
           | client, _ ->
               Atomic.incr t.inflight;
               ignore (Thread.create (connection t) client)
           | exception
               Unix.Unix_error
                 ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                   | Unix.ECONNABORTED ),
                   _,
                   _ ) ->
               ())
     done
   with Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  shutdown t

let serve_background t fd = Thread.create (fun () -> serve t fd) ()
