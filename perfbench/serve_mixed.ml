(* serve_mixed: the shipped exlserve daemon, booted from a saved store
   of the GDP programs, under a closed-loop read-mostly mix.

   The daemon runs as its own process, so the generator's threads never
   share its OCaml runtime lock.  One keep-alive connection sends its
   next request only after the previous reply: about 90% GETs (small
   derived cubes, PQR/PDR slices filtered by region with a limit,
   point-in-time reads, SDMX) and 10% POSTs revising 1, 10 or 100 PDR
   keys at the tail of the series.  Reads and writes share the snapshot
   layer here, and writes go through the incremental chase, which
   gdp_cycle never runs.  With two connections the daemon's connection
   threads and its writer contend for the daemon's one runtime lock,
   and which request waited for which changed from run to run. *)

open Matrix
open Measure

open Serve_mix

let setup_runs = 5

(* ----- inputs ----- *)

(* Program files, named so the daemon registers production first, and a
   saved store of one seeded delivery. *)
let prepare ~seed =
  let programs = Workdir.scratch_dir "programs" in
  Workdir.write_file (Filename.concat programs "1_production.exl") Gdp_data.production;
  Workdir.write_file (Filename.concat programs "2_dissemination.exl") Gdp_data.dissemination;
  let st = Random.State.make [| seed; 0x5E4D |] in
  let pdr, rgdppc = Gdp_data.delivery ~regions ~years st in
  let engine = Gdp_data.engine () in
  let ok = Gdp_data.ok in
  ok "load" (Engine.Exlengine.load_elementary engine pdr);
  ok "load" (Engine.Exlengine.load_elementary engine rgdppc);
  ignore (ok "recompute" (Engine.Exlengine.recompute_all engine));
  let store = Workdir.scratch_dir "seed-store" in
  ok "save" (Engine.Exlengine.save_store engine ~dir:store);
  (programs, store, Cube.cardinality pdr)

(* ----- the daemon ----- *)

type daemon = { pid : int; port : int; out : in_channel; store : string }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~exe ~programs ~store =
  let r, w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (store ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process exe
      [| exe; "--programs"; programs; "--store-dir"; store; "--host"; "127.0.0.1";
         "--port"; "0" |]
      Unix.stdin w log
  in
  Unix.close w;
  Unix.close log;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line out with
    | exception End_of_file -> failwith ("exlserve exited during boot; see " ^ store ^ ".log")
    | line -> (
        match Scanf.sscanf_opt line "exlserve: listening on http://%s@:%d/" (fun _ p -> p) with
        | Some p -> p
        | None -> port ())
  in
  { pid; port = port (); out; store }

(* SIGTERM, then wait for the drain (which saves the store). *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = wait () in
  live := List.filter (( <> ) d.pid) !live;
  close_in_noerr d.out;
  clean

(* The warm-up that ends set-up: every request class three times,
   revisions included, so lazy index builds happen before timing. *)
let warm_up d ~seed =
  let c = Http_client.connect d.port in
  Fun.protect
    ~finally:(fun () -> Http_client.close c)
    (fun () ->
      let next = stream ~seed:(seed + 1) ~client:0 in
      let seen = Hashtbl.create 8 in
      let ok = ref true in
      let warm () =
        Hashtbl.length seen = List.length (Post :: gets) && Hashtbl.fold (fun _ n acc -> acc && n >= 3) seen true
      in
      while not (warm ()) do
        let r = next () in
        let n = Option.value ~default:0 (Hashtbl.find_opt seen r.kind) in
        if n < 3 then begin
          let status, _ = Http_client.roundtrip c r.raw in
          if status <> 200 then ok := false;
          Hashtbl.replace seen r.kind (n + 1)
        end
      done;
      !ok)

let boot ~exe ~programs ~seed_store ~seed k =
  let store = Workdir.scratch_dir (Printf.sprintf "store-%d" k) in
  Workdir.copy_dir seed_store store;
  let (d, ok), dt =
    time (fun () ->
        let d = spawn ~exe ~programs ~store in
        (d, warm_up d ~seed))
  in
  (d, ok, dt)

(* ----- closed-loop load ----- *)

type tally = {
  mutable lat : (kind * float * float) list;  (** kind, start, seconds *)
  mutable ok : int;
  mutable bad : int;
  mutable acked : ((string * string) * float) list;  (** newest first *)
}

let client ~port ~seed ~deadline idx =
  let t = { lat = []; ok = 0; bad = 0; acked = [] } in
  let next = stream ~seed ~client:idx in
  (match Http_client.connect port with
  | exception _ -> t.bad <- t.bad + 1
  | c ->
      Fun.protect
        ~finally:(fun () -> Http_client.close c)
        (fun () ->
          while now () < deadline do
            let r = next () in
            let t0 = now () in
            match Http_client.roundtrip c r.raw with
            | status, _ when status >= 200 && status < 300 ->
                t.lat <- (r.kind, t0, now () -. t0) :: t.lat;
                t.ok <- t.ok + 1;
                if r.kind = Post then t.acked <- List.rev_append r.revisions t.acked
            | _ -> t.bad <- t.bad + 1
            | exception _ -> t.bad <- t.bad + 1
          done));
  t

(* CPU time of process [pid] so far, all its threads, seconds: utime
   and stime of /proc/<pid>/stat, in clock ticks of 10 ms. *)
let process_cpu pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      (* procfs files report length 0: read a line, not the length *)
      let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
      (* the fields after the command name, which may hold spaces *)
      let from = String.rindex line ')' + 2 in
      let f = Array.of_list (String.split_on_char ' ' (String.sub line from (String.length line - from))) in
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

type load = {
  tallies : tally list;
  wall : float;
  client_cpu : float;
  commits : float;
  jobs : float;
  daemon_rss_mb : float;
  daemon_cpu : float;  (** seconds *)
  speed : speed;  (** the host's speed through the load *)
}

let load d ~seed ~seconds =
  let commits0 = Http_client.scrape_counter d.port "exl_serve_commits" in
  let jobs0 = Http_client.scrape_counter d.port "exl_serve_coalesced_jobs" in
  let sp = speed () in
  calibrate sp;
  let cpu0 = cpu () and t0 = now () and dcpu0 = process_cpu d.pid in
  let deadline = t0 +. seconds in
  let results = Array.make connections None in
  let threads =
    List.init connections (fun i ->
        Thread.create
          (fun () -> results.(i) <- Some (client ~port:d.port ~seed ~deadline i))
          ())
  in
  (* The main thread samples the host's speed while the clients run. *)
  while now () < deadline do
    Unix.sleepf (Float.max 0.001 (Float.min (sp.due -. now ()) (deadline -. now ())));
    tick sp
  done;
  List.iter Thread.join threads;
  let wall = now () -. t0 and client_cpu = cpu () -. cpu0 in
  let daemon_cpu = process_cpu d.pid -. dcpu0 in
  calibrate sp;
  {
    tallies = Array.to_list results |> List.filter_map Fun.id;
    wall;
    client_cpu;
    commits = Http_client.scrape_counter d.port "exl_serve_commits" -. commits0;
    jobs = Http_client.scrape_counter d.port "exl_serve_coalesced_jobs" -. jobs0;
    daemon_rss_mb = rss_peak_mb (string_of_int d.pid);
    daemon_cpu;
    speed = sp;
  }

let latencies l kinds =
  List.concat_map
    (fun t -> List.filter_map (fun (k, _, x) -> if List.mem k kinds then Some x else None) t.lat)
    l.tallies
  |> sorted_of_list

(* Latency in refs: each request's over the kernel time around it. *)
let costs l kinds =
  let at = ref_at l.speed fst in
  List.concat_map
    (fun t ->
      List.filter_map
        (fun (k, t0, x) -> if List.mem k kinds then Some (x /. at (t0 +. (x /. 2.))) else None)
        t.lat)
    l.tallies
  |> sorted_of_list

let pct a p = 1000. *. percentile a p

(* After the drain: the saved derived cubes equal a from-scratch
   recompute over the saved elementary cubes, and every revised key
   holds the last value acknowledged for it. *)
let drain_checks ~drained l store =
  match Store.load ~dir:store with
  | Error _ -> [ ("daemon drained and saved its store", false) ]
  | Ok saved ->
      let scratch = Gdp_data.engine () in
      let elementary name =
        Engine.Exlengine.load_elementary scratch (Registry.find_exn saved name)
      in
      let recomputed =
        Result.is_ok (elementary "PDR")
        && Result.is_ok (elementary "RGDPPC")
        && Result.is_ok (Engine.Exlengine.recompute_all scratch)
      in
      let incremental_eq_scratch =
        recomputed
        && Gdp_data.derived_match ~expected:(Engine.Exlengine.store scratch)
             (Registry.find saved)
      in
      let pdr = Registry.find_exn saved "PDR" in
      let last = Hashtbl.create 256 in
      List.iter
        (fun t ->
          (* newest first: keep the first value seen per key *)
          List.iter
            (fun (k, v) -> if not (Hashtbl.mem last k) then Hashtbl.add last k v)
            t.acked)
        l.tallies;
      let acked_present =
        Hashtbl.fold
          (fun (d, r) v ok ->
            ok
            &&
            match Calendar.Date.of_string d with
            | None -> false
            | Some date -> (
                match Cube.find pdr (Tuple.of_list [ Value.Date date; Value.String r ]) with
                | Some got -> Float.abs (Value.to_float_exn got -. v) < 1e-6
                | None -> false))
          last true
      in
      [
        ("daemon drained and saved its store", drained);
        ("incremental == scratch after drain", incremental_eq_scratch);
        ("last acknowledged value of every revised key present", acked_present);
      ]

let boots ~exe ~programs ~seed_store ~seed =
  let rec go k acc =
    let d, ok, dt = boot ~exe ~programs ~seed_store ~seed k in
    if k = setup_runs then (d, (ok, dt) :: acc)
    else begin
      ignore (stop d);
      go (k + 1) ((ok, dt) :: acc)
    end
  in
  let d, setups = go 1 [] in
  (d, List.for_all fst setups, median (List.map snd setups))

let client_figures l =
  let ok = List.fold_left (fun a t -> a + t.ok) 0 l.tallies in
  let bad = List.fold_left (fun a t -> a + t.bad) 0 l.tallies in
  (ok, bad, latencies l gets, latencies l [ Post ])

let run ~exe ~seed ~seconds ~trace =
  let programs, seed_store, pdr_facts = prepare ~seed in
  let d, setup_ok, setup_s = boots ~exe ~programs ~seed_store ~seed in
  let l = load d ~seed ~seconds:(if trace then seconds /. 2. else seconds) in
  let drained = stop d in
  let checks =
    ("set-up boots and warm-ups answer 200", setup_ok)
    :: drain_checks ~drained l d.store
  in
  let ok, bad, g, p = client_figures l in
  let attempted = ok + bad in
  let notes =
    [
      ("daemon", Printf.sprintf "exlserve, %d regions x %d years (%d PDR facts)" regions years pdr_facts);
      ("load", Printf.sprintf "closed loop, %d keep-alive connections" connections);
    ]
  in
  let client_report =
    [
      m "get_p50_ms" "ms" (pct g 0.5);
      m "get_p99_ms" "ms" (pct g 0.99);
      m "post_p50_ms" "ms" (pct p 0.5);
      m "post_p90_ms" "ms" (pct p 0.9);
      m "error_frac" "ratio" (float_of_int bad /. float_of_int (max 1 attempted));
      m "gets" "count" (float_of_int (Array.length g));
      m "posts" "count" (float_of_int (Array.length p));
      m "get_samples_beyond_p99" "count" (float_of_int (beyond (Array.length g) 0.99));
      m "post_samples_beyond_p90" "count" (float_of_int (beyond (Array.length p) 0.9));
      m "client_cpu_s" "s" l.client_cpu;
      m "client_cpu_pct" "%" (100. *. l.client_cpu /. l.wall);
      m "connections" "count" (float_of_int connections);
      m "serve.jobs_per_commit" "ratio" (Layers.ratio l.jobs l.commits);
    ]
  in
  if not trace then
    {
      attempted;
      failed = bad;
      checks;
      end_to_end =
        (let gc = costs l gets in
         [
           m "ops_per_kref" "ops/kref"
             (1000. *. float_of_int ok
             /. (l.daemon_cpu /. median (List.map (fun (_, (_, c)) -> c) l.speed.samples)));
           m "op_p50_ref" "ref" (percentile gc 0.5);
           m "op_p90_ref" "ref" (percentile gc 0.9);
           m "setup_s" "s" setup_s;
           m "rss_peak_mb" "MB" l.daemon_rss_mb;
         ]);
      per_layer = [];
      report =
        [
          m "ops_per_s" "ops/s" (float_of_int ok /. l.wall);
          m "op_p50_ms" "ms" (pct g 0.5);
          m "op_p90_ms" "ms" (pct g 0.9);
          m "kernel_ms" "ms" (kernel_ms l.speed);
          m "daemon_cpu_s" "s" l.daemon_cpu;
        ]
        @ List.map (fun k -> m (kind_name k ^ "_p50_ms") "ms" (pct (latencies l [ k ]) 0.5)) (gets @ [ Post ])
        @ client_report;
      notes;
    }
  else
    let inproc = In_process.run ~seed_store ~seed ~seconds:(seconds /. 2.) in
    let client_get_p50 = pct g 0.5 in
    {
      attempted = attempted + inproc.In_process.attempted;
      failed = bad + inproc.In_process.failed;
      checks;
      end_to_end = [];
      per_layer =
        Layers.per_layer inproc.In_process.totals
          (("serve.jobs_per_commit", Layers.ratio l.jobs l.commits)
          :: inproc.In_process.common);
      report =
        client_report
        @ inproc.In_process.report
        @ [
            m "serve.transport_ms" "ms"
              (client_get_p50 -. inproc.In_process.handler_get_p50_ms);
          ];
      notes;
    }
