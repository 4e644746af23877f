(* serve_mixed's per-layer half: the engine booted in this process from
   the same saved store, then the same seeded request stream replayed
   through the server's parser and handler without a socket.  Timing
   the handler per request class, the incremental engine's own spans
   under it, and the client-side figures of the daemon run against it
   splits a request's latency into layers. *)

open Measure
open Serve_mix

type result = {
  attempted : int;
  failed : int;
  totals : Layers.totals;
  common : (string * float) list;  (** values for {!Layers.per_layer} *)
  report : metric list;
  handler_get_p50_ms : float;  (** untraced *)
}

let span = Layers.span

let durations (c : Obs.t) name =
  Obs.Trace.spans c.Obs.trace
  |> List.filter_map (fun (s : Obs.Trace.span) ->
         if s.Obs.Trace.name = name then Some s.Obs.Trace.duration_s else None)

let first_ms c name =
  match durations c name with x :: _ -> 1000. *. x | [] -> 0.

let facts_changed body =
  match Obs.Json.parse body with
  | Ok j ->
      Option.bind (Obs.Json.member "facts_changed" j) Obs.Json.number
      |> Option.value ~default:0.
  | Error _ -> 0.

let run ~seed_store ~seed ~seconds =
  let store = Workdir.scratch_dir "inproc-store" in
  Workdir.copy_dir seed_store store;
  let ok = Gdp_data.ok in
  (* Boot, as exlserve does, each phase in its own span; the prime is
     the first revision after the warm cache, when the incremental
     engine builds its lazy indexes. *)
  let boot = Obs.create () in
  let server =
    Obs.with_collector boot (fun () ->
        let e = Gdp_data.engine () in
        span "pb:matrix.store_load" (fun () ->
            ok "load_store" (Engine.Exlengine.load_store e ~dir:store));
        let report =
          span "pb:engine.boot_recompute" (fun () ->
              ok "recompute_all" (Engine.Exlengine.recompute_all e))
        in
        span "pb:engine.warm" (fun () -> ok "warm" (Engine.Exlengine.warm e));
        let server = Serve.Server.create ~report e in
        let next = stream ~seed:(seed + 1) ~client:0 in
        let rec prime () =
          let r = next () in
          if r.kind <> Post then prime ()
          else
            match Serve.Http.parse r.raw 0 with
            | Serve.Http.Complete (req, _) ->
                ignore (Serve.Server.handle_request server req)
            | _ -> ()
        in
        prime ();
        server)
  in
  let boot_ms name = Layers.ms_per_call (Layers.totals (Obs.Trace.spans boot.Obs.trace)) name in
  let next = stream ~seed ~client:0 in
  let lat = Hashtbl.create 8 and plain_lat = ref (Hashtbl.create 8) in
  let changed = ref 0. in
  let op _ =
    let r = next () in
    let t0 = now () in
    match span "pb:serve.parse" (fun () -> Serve.Http.parse r.raw 0) with
    | Serve.Http.Complete (req, _) ->
        let reply =
          span ("pb:serve." ^ kind_name r.kind) (fun () ->
              Serve.Server.handle_request server req)
        in
        let dt = now () -. t0 in
        Hashtbl.replace lat r.kind (dt :: Option.value ~default:[] (Hashtbl.find_opt lat r.kind));
        if r.kind = Post then changed := !changed +. facts_changed reply.Serve.Server.body;
        reply.Serve.Server.status = 200
    | _ -> false
  in
  let on_trace () =
    plain_lat := Hashtbl.copy lat;
    Hashtbl.reset lat;
    changed := 0.
  in
  let tr = Layers.traced_run ~on_trace ~seconds op in
  Serve.Server.shutdown server;
  let c = tr.Layers.collector and t = tr.Layers.t in
  Layers.export_chrome c ~path:(Workdir.file "trace-serve_mixed.json");
  let gets tbl =
    List.concat_map
      (fun k -> Option.value ~default:[] (Hashtbl.find_opt tbl k))
      Serve_mix.gets
  in
  let handler_get_p50_ms = 1000. *. median (gets !plain_lat) in
  let apply = durations c "incr.apply_updates" in
  let apply_p50 = if apply = [] then 0. else 1000. *. median apply in
  let post_p50 =
    match durations c "pb:serve.post" with [] -> 0. | d -> 1000. *. median d
  in
  let rederived = Layers.ratio (Layers.counter c "chase.incr.facts_rederived") !changed in
  let overhead = Layers.overhead tr in
  let report =
    [
      m "serve.http_parse_us" "us" (1000. *. Layers.ms_per_call t "pb:serve.parse");
      m "serve.get_small_ms" "ms" (Layers.ms_per_call t "pb:serve.get_small");
      m "serve.get_pqr_ms" "ms" (Layers.ms_per_call t "pb:serve.get_pqr");
      m "serve.get_slice_ms" "ms" (Layers.ms_per_call t "pb:serve.get_slice");
      m "serve.get_asof_ms" "ms" (Layers.ms_per_call t "pb:serve.get_asof");
      m "serve.get_sdmx_ms" "ms" (Layers.ms_per_call t "pb:serve.get_sdmx");
      m "serve.handler_get_p50_ms" "ms" handler_get_p50_ms;
      m "engine.apply_updates_ms" "ms" (Layers.ms_per_call t "incr.apply_updates");
      m "exchange.incremental_ms" "ms" (Layers.self_ms_per_call t "chase.incremental");
      m "exchange.rederived_per_changed" "ratio" rederived;
      m "exchange.matches_per_tuple" "ratio" (Layers.matches_per_tuple c);
      m "serve.commit_wait_ms" "ms" (post_p50 -. apply_p50);
      m "matrix.store_load_ms" "ms" (boot_ms "pb:matrix.store_load");
      m "engine.boot_recompute_ms" "ms" (boot_ms "pb:engine.boot_recompute");
      m "engine.warm_ms" "ms" (boot_ms "pb:engine.warm");
      m "engine.prime_ms" "ms" (first_ms boot "incr.apply_updates");
      m "obs.overhead_pct" "%" overhead;
      m "traced_ops" "count" (float_of_int tr.Layers.traced.ops);
    ]
  in
  {
    attempted = tr.Layers.plain.ops + tr.Layers.traced.ops;
    failed = tr.Layers.plain.op_failures + tr.Layers.traced.op_failures;
    totals = t;
    common =
      [
        ("exchange.matches_per_tuple", Layers.matches_per_tuple c);
        ("exchange.rederived_per_changed", rederived);
        ("alloc_mw_per_op", tr.Layers.words_per_op /. 1e6);
        ("obs.overhead_pct", overhead);
      ];
    report;
    handler_get_p50_ms;
  }
