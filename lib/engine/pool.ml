type t = {
  mutex : Mutex.t;
  work_available : Condition.t;
  task_done : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec await () =
    if not (Queue.is_empty t.tasks) then Some (Queue.pop t.tasks)
    else if t.closed then None
    else begin
      Condition.wait t.work_available t.mutex;
      await ()
    end
  in
  match await () with
  | None -> Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t

let default_size () = max 1 (Domain.recommended_domain_count () - 1)

let create ?size () =
  let size = match size with Some n -> max 0 n | None -> default_size () in
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      task_done = Condition.create ();
      tasks = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init size (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

exception Missing_result of string

(* The caller participates: after enqueueing it keeps popping and
   executing queued tasks itself, so a burst makes progress even on a
   zero-worker pool (and never deadlocks when every worker is busy with
   somebody else's work).  Exceptions never cross domain boundaries
   raw: every task's outcome — value or exception — is captured per
   task, with its label, so callers (the dispatcher) can turn a crashed
   worker into a structured [Worker_crash] failure instead of losing
   the whole burst. *)
let try_all (type a) t (fs : (string * (unit -> a)) list) :
    (a, string * exn) result list =
  match fs with
  | [] -> []
  | [ (label, f) ] -> [ (try Ok (f ()) with e -> Error (label, e)) ]
  | fs ->
      let n = List.length fs in
      let results : (a, string * exn) result option array = Array.make n None in
      let remaining = ref n in
      let wrap i label f () =
        let outcome = try Ok (f ()) with e -> Error (label, e) in
        Obs.count "pool.tasks_completed";
        Mutex.lock t.mutex;
        results.(i) <- Some outcome;
        decr remaining;
        Condition.broadcast t.task_done;
        Mutex.unlock t.mutex
      in
      Obs.count ~n "pool.tasks_submitted";
      Mutex.lock t.mutex;
      List.iteri (fun i (label, f) -> Queue.push (wrap i label f) t.tasks) fs;
      Obs.gauge "pool.queue_depth" (float_of_int (Queue.length t.tasks));
      Condition.broadcast t.work_available;
      let rec drain () =
        if !remaining > 0 then begin
          (if not (Queue.is_empty t.tasks) then begin
             let task = Queue.pop t.tasks in
             Mutex.unlock t.mutex;
             task ();
             Mutex.lock t.mutex
           end
           else Condition.wait t.task_done t.mutex);
          drain ()
        end
      in
      drain ();
      Mutex.unlock t.mutex;
      List.mapi
        (fun i (label, _) ->
          match results.(i) with
          | Some outcome -> outcome
          | None ->
              (* unreachable: [drain] returns only once every wrapped
                 task has stored its outcome — but surface it as a
                 typed per-task failure, never a crash *)
              Error (label, Missing_result label))
        fs

let shutdown t =
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  if not was_closed then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* One lazily created process-wide pool, so the dispatcher's repeated
   waves reuse warm domains instead of spawning fresh ones. *)
let shared_lock = Mutex.create ()
let shared_pool = ref None

let shared () =
  Mutex.lock shared_lock;
  let t =
    match !shared_pool with
    | Some t -> t
    | None ->
        let t = create () in
        shared_pool := Some t;
        at_exit (fun () -> shutdown t);
        t
  in
  Mutex.unlock shared_lock;
  t
