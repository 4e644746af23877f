(* exlserve: HTTP parser totality, routing, the single-writer commit
   loop, snapshot isolation, admission control, degraded serving, and
   concurrent point-in-time reads (docs/SERVING.md). *)
open Matrix
open Helpers
module Http = Serve.Http
module Server = Serve.Server
module Snapshot = Serve.Snapshot

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let contains = Astring_contains.contains

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S in %S" what needle
       (String.sub haystack 0 (min 120 (String.length haystack))))
    true (contains haystack needle)

(* --- fixture: a tiny shop-sales engine --- *)

let sales_program =
  "cube SALES(m: month, shop: string);\n\
   TOTAL := sum(SALES, group by m);\n\
   ROME := filter(SALES, shop = \"rome\");\n"

let sales_cube () =
  cube_of "SALES"
    [ ("m", Domain.Period (Some Calendar.Month)); ("shop", Domain.String) ]
    [
      [ vm 2024 1; vs "rome"; vf 10. ];
      [ vm 2024 1; vs "milan"; vf 20. ];
      [ vm 2024 2; vs "rome"; vf 13. ];
    ]

let boot_server ?faults ?(config = Server.default_config) () =
  let econfig = { Engine.Exlengine.default_config with faults } in
  let engine = Engine.Exlengine.create ~config:econfig () in
  ok (Engine.Exlengine.register_program engine ~name:"p" sales_program);
  ok (Engine.Exlengine.load_elementary engine (sales_cube ()));
  let report = ok (Engine.Exlengine.recompute_all engine) in
  (* a quarantined boot cannot warm the full cache; that is fine *)
  (match Engine.Exlengine.warm engine with Ok () | Error _ -> ());
  Server.create ~config ~report engine

(* Build a parsed request the way the connection loop would. *)
let request ?(headers = []) ?body meth target =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (k ^ ": " ^ v ^ "\r\n"))
    headers;
  (match body with
  | Some b ->
      Buffer.add_string buf
        (Printf.sprintf "content-length: %d\r\n" (String.length b))
  | None -> ());
  Buffer.add_string buf "\r\n";
  Option.iter (Buffer.add_string buf) body;
  match Http.parse (Buffer.contents buf) 0 with
  | Http.Complete (r, _) -> r
  | Http.Incomplete -> Alcotest.fail "request fixture incomplete"
  | Http.Failed e -> Alcotest.failf "request fixture rejected: %s" e.Http.reason

(* --- the parser --- *)

let test_parse_request_line () =
  let r =
    request "GET" "/v1/cube/TOTAL%20X?shop=ro%2Fme&q=a+b"
      ~headers:[ ("Host", "x"); ("X-Trace", "7") ]
  in
  Alcotest.(check string) "method" "GET" r.Http.meth;
  Alcotest.(check (list string))
    "path decoded" [ "v1"; "cube"; "TOTAL X" ] r.Http.path;
  Alcotest.(check (list (pair string string)))
    "query decoded, + is space"
    [ ("shop", "ro/me"); ("q", "a b") ]
    r.Http.query;
  Alcotest.(check (option string))
    "headers lowercased" (Some "7") (Http.header r "x-trace");
  Alcotest.(check (option string))
    "query_param" (Some "ro/me") (Http.query_param r "shop");
  Alcotest.(check bool) "keep-alive by default" false (Http.wants_close r)

let test_parse_pipelined () =
  let one = "GET /a HTTP/1.1\r\n\r\n" in
  let two = "POST /b HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz" in
  let buf = one ^ two in
  (match Http.parse buf 0 with
  | Http.Complete (r, used) ->
      Alcotest.(check (list string)) "first path" [ "a" ] r.Http.path;
      Alcotest.(check int) "first consumed" (String.length one) used;
      (match Http.parse buf used with
      | Http.Complete (r2, used2) ->
          Alcotest.(check (list string)) "second path" [ "b" ] r2.Http.path;
          Alcotest.(check string) "second body" "xyz" r2.Http.body;
          Alcotest.(check int)
            "all bytes consumed" (String.length buf) (used + used2)
      | _ -> Alcotest.fail "second request did not parse")
  | _ -> Alcotest.fail "first request did not parse");
  (* bare-LF endings are accepted too *)
  match Http.parse "GET /lf HTTP/1.1\nhost: x\n\n" 0 with
  | Http.Complete (r, _) ->
      Alcotest.(check (list string)) "bare LF" [ "lf" ] r.Http.path
  | _ -> Alcotest.fail "bare-LF request did not parse"

let test_parse_incomplete () =
  let whole = "POST /u HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello" in
  for cut = 1 to String.length whole - 1 do
    match Http.parse (String.sub whole 0 cut) 0 with
    | Http.Incomplete -> ()
    | Http.Complete _ -> Alcotest.failf "complete at prefix %d" cut
    | Http.Failed e -> Alcotest.failf "failed at prefix %d: %s" cut e.Http.reason
  done

let test_parse_fails_closed () =
  let status input =
    match Http.parse input 0 with
    | Http.Failed e -> e.Http.status
    | Http.Complete _ -> Alcotest.failf "%S parsed" input
    | Http.Incomplete -> Alcotest.failf "%S incomplete" input
  in
  Alcotest.(check int) "garbage request line" 400 (status "what even\r\n\r\n");
  Alcotest.(check int) "bad content-length" 400
    (status "POST /u HTTP/1.1\r\ncontent-length: nope\r\n\r\n");
  Alcotest.(check int) "transfer-encoding unimplemented" 501
    (status "POST /u HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
  Alcotest.(check int) "oversized declared body" 413
    (status
       (Printf.sprintf "POST /u HTTP/1.1\r\ncontent-length: %d\r\n\r\n"
          (Http.default_limits.Http.max_body + 1)));
  (* an unterminated request line past the limit fails before more
     bytes arrive — the accept loop can bound memory *)
  Alcotest.(check int) "unterminated giant line" 400
    (status (String.make (Http.default_limits.Http.max_request_line + 1) 'A'))

let test_fuzz_campaign () =
  match Serve.Http_fuzz.run ~seed:1234 ~count:400 () with
  | None -> ()
  | Some v ->
      Alcotest.failf "parser totality violated (%s) on %S"
        v.Serve.Http_fuzz.reason v.Serve.Http_fuzz.input

(* --- routing (transport-independent) --- *)

let test_route_catalog () =
  let t = boot_server () in
  let r = Server.handle_request t (request "GET" "/") in
  Alcotest.(check int) "index" 200 r.Server.status;
  let h = Server.handle_request t (request "GET" "/healthz") in
  Alcotest.(check int) "healthz" 200 h.Server.status;
  check_contains "healthz" h.Server.body "\"ok\"";
  let c = Server.handle_request t (request "GET" "/v1/cubes") in
  Alcotest.(check int) "catalog" 200 c.Server.status;
  List.iter
    (fun cube -> check_contains "catalog" c.Server.body cube)
    [ "SALES"; "TOTAL"; "ROME"; "healthy" ];
  let missing = Server.handle_request t (request "GET" "/v1/cube/NOPE") in
  Alcotest.(check int) "unknown cube" 404 missing.Server.status;
  let bad = Server.handle_request t (request "GET" "/nope") in
  Alcotest.(check int) "unknown route" 404 bad.Server.status;
  let wrong = Server.handle_request t (request "POST" "/v1/cubes") in
  Alcotest.(check int) "post to a read route" 404 wrong.Server.status;
  let del = Server.handle_request t (request "DELETE" "/v1/cubes") in
  Alcotest.(check int) "method not allowed" 405 del.Server.status;
  Server.shutdown t

let test_route_slice_filters () =
  let t = boot_server () in
  let get target = Server.handle_request t (request "GET" target) in
  let all = get "/v1/cube/SALES" in
  Alcotest.(check int) "slice" 200 all.Server.status;
  check_contains "slice carries data" all.Server.body "\"cardinality\":3";
  let rome = get "/v1/cube/SALES?shop=rome" in
  check_contains "filtered rows" rome.Server.body "\"returned\":2";
  check_contains "filter keeps cardinality" rome.Server.body "\"cardinality\":3";
  Alcotest.(check bool) "milan filtered out" false
    (contains rome.Server.body "milan");
  let limited = get "/v1/cube/SALES?limit=1" in
  check_contains "limit" limited.Server.body "\"returned\":1";
  let bad_dim = get "/v1/cube/SALES?region=x" in
  Alcotest.(check int) "unknown dimension is 400" 400 bad_dim.Server.status;
  let bad_limit = get "/v1/cube/SALES?limit=many" in
  Alcotest.(check int) "bad limit is 400" 400 bad_limit.Server.status;
  let sdmx = get "/v1/sdmx/TOTAL" in
  Alcotest.(check int) "sdmx" 200 sdmx.Server.status;
  check_contains "sdmx generic data" sdmx.Server.body "GenericData";
  check_contains "sdmx content type" sdmx.Server.content_type "xml";
  Server.shutdown t

let test_route_update_and_asof () =
  let t = boot_server () in
  let post ?headers target body =
    Server.handle_request t (request "POST" ?headers ~body target)
  in
  (* text format *)
  let r1 = post "/v1/update?as_of=2026-02-01" "set SALES 2024M01 rome 100\n" in
  Alcotest.(check int) "text update" 200 r1.Server.status;
  check_contains "committed" r1.Server.body "\"committed\":true";
  check_contains "recomputed" r1.Server.body "TOTAL";
  (* read-your-writes through the published snapshot *)
  let total = Server.handle_request t (request "GET" "/v1/cube/TOTAL") in
  check_contains "new total visible" total.Server.body "120";
  (* JSON format, explicit as_of in the document *)
  let r2 =
    post "/v1/update"
      ~headers:[ ("content-type", "application/json") ]
      {|{"updates":[{"cube":"SALES","key":["2024M01","rome"],"value":200}],
         "as_of":"2026-03-01"}|}
  in
  Alcotest.(check int) "json update" 200 r2.Server.status;
  (* as-of reads pick the latest version at or before the date *)
  let asof d = Server.handle_request t (request "GET" ("/v1/cube/TOTAL/asof/" ^ d)) in
  check_contains "asof first commit" (asof "2026-02-15").Server.body "120";
  check_contains "asof second commit" (asof "2026-04-01").Server.body "220";
  Alcotest.(check int) "asof before any version" 404 (asof "2020-01-01").Server.status;
  Alcotest.(check int) "unparseable date" 400 (asof "not-a-date").Server.status;
  (* malformed and invalid batches answer 400 without queueing *)
  Alcotest.(check int) "parse error" 400
    (post "/v1/update" "zap SALES 2024M01 rome 1\n").Server.status;
  Alcotest.(check int) "unknown cube" 400
    (post "/v1/update" "set NOPE 2024M01 rome 1\n").Server.status;
  Alcotest.(check int) "derived cube rejected" 400
    (post "/v1/update" "set TOTAL 2024M01 1\n").Server.status;
  (* an empty batch commits trivially *)
  Alcotest.(check int) "empty batch" 200
    (post "/v1/update" "# nothing\n").Server.status;
  Server.shutdown t

let test_route_quarantined () =
  (* Permanent execute fault on the TOTAL group: the boot recompute
     quarantines it; the server keeps serving the healthy cubes and
     answers 503 with the structured diagnostic for the rest. *)
  let faults =
    Engine.Faults.plan
      [
        Engine.Faults.trigger ~cube:"TOTAL" ~times:Engine.Faults.always
          Engine.Faults.Execute (Engine.Faults.Execute_error "injected outage");
      ]
  in
  let t = boot_server ~faults () in
  let got = Server.handle_request t (request "GET" "/v1/cube/TOTAL") in
  Alcotest.(check int) "quarantined cube" 503 got.Server.status;
  check_contains "structured diagnostic" got.Server.body "\"error\":\"quarantined\"";
  check_contains "diagnostic stage" got.Server.body "\"stage\":\"execute\"";
  check_contains "diagnostic failure" got.Server.body "injected outage";
  let sales = Server.handle_request t (request "GET" "/v1/cube/SALES") in
  Alcotest.(check int) "healthy sibling still serves" 200 sales.Server.status;
  let catalog = Server.handle_request t (request "GET" "/v1/cubes") in
  check_contains "catalog shows degradation" catalog.Server.body "quarantined";
  Server.shutdown t

(* --- the single-writer loop --- *)

let test_snapshot_isolation_and_429 () =
  let config = { Server.default_config with max_queue = 1 } in
  let t = boot_server ~config () in
  let seq0 = Snapshot.seq (Server.snapshot t) in
  Server.pause_writer t;
  (* a queued-but-uncommitted batch is invisible to readers *)
  let posted = Atomic.make None in
  let poster =
    Thread.create
      (fun () ->
        Atomic.set posted
          (Some
             (Server.handle_request t
                (request "POST" "/v1/update"
                   ~body:"set SALES 2024M01 rome 100\n"))))
      ()
  in
  let rec wait_queued n =
    if Server.queue_depth t = 0 && n > 0 then begin
      Thread.delay 0.002;
      wait_queued (n - 1)
    end
  in
  wait_queued 500;
  Alcotest.(check int) "batch queued" 1 (Server.queue_depth t);
  let during = Server.handle_request t (request "GET" "/v1/cube/TOTAL") in
  check_contains "old value still served" during.Server.body "30";
  Alcotest.(check int) "snapshot seq unchanged" seq0
    (Snapshot.seq (Server.snapshot t));
  (* the queue is full (max_queue = 1): admission control answers 429
     with a Retry-After hint instead of queueing without bound *)
  let overflow =
    Server.handle_request t
      (request "POST" "/v1/update" ~body:"set SALES 2024M02 rome 1\n")
  in
  Alcotest.(check int) "overflow rejected" 429 overflow.Server.status;
  Alcotest.(check bool) "retry-after hint" true
    (List.mem_assoc "retry-after" overflow.Server.headers);
  Server.resume_writer t;
  Thread.join poster;
  (match Atomic.get posted with
  | Some r -> Alcotest.(check int) "queued batch commits" 200 r.Server.status
  | None -> Alcotest.fail "poster thread produced no reply");
  (* read-your-writes: the POST reply was sent after publish *)
  let after = Server.handle_request t (request "GET" "/v1/cube/TOTAL") in
  check_contains "new value" after.Server.body "120";
  Alcotest.(check int) "snapshot advanced" (seq0 + 1)
    (Snapshot.seq (Server.snapshot t));
  Server.shutdown t

let test_coalescing_merges_batches () =
  (* With the writer held, several queued batches — including opposing
     updates — commit as ONE compacted batch and one snapshot flip. *)
  let config =
    { Server.default_config with max_queue = 16; coalesce_window = 0.001 }
  in
  let t = boot_server ~config () in
  let seq0 = Snapshot.seq (Server.snapshot t) in
  Server.pause_writer t;
  let post body =
    let out = Atomic.make None in
    let th =
      Thread.create
        (fun () ->
          Atomic.set out
            (Some (Server.handle_request t (request "POST" "/v1/update" ~body))))
        ()
    in
    (th, out)
  in
  let rec wait_queued depth n =
    if Server.queue_depth t < depth && n > 0 then begin
      Thread.delay 0.002;
      wait_queued depth (n - 1)
    end
  in
  (* Queue the batches one at a time: the del must follow the set it
     cancels, and concurrent client threads do not enqueue in spawn
     order. *)
  let p1 = post "set SALES 2024M03 rome 5\n" in
  wait_queued 1 500;
  let p2 = post "del SALES 2024M03 rome\n" in
  wait_queued 2 500;
  let p3 = post "set SALES 2024M01 rome 40\n" in
  wait_queued 3 500;
  Alcotest.(check int) "three batches queued" 3 (Server.queue_depth t);
  Server.resume_writer t;
  List.iter
    (fun (th, out) ->
      Thread.join th;
      match Atomic.get out with
      | Some r ->
          Alcotest.(check int) "each client sees its commit" 200 r.Server.status
      | None -> Alcotest.fail "client thread produced no reply")
    [ p1; p2; p3 ];
  Alcotest.(check int) "one snapshot flip for the whole group" (seq0 + 1)
    (Snapshot.seq (Server.snapshot t));
  let total = Server.handle_request t (request "GET" "/v1/cube/TOTAL") in
  check_contains "net effect applied" total.Server.body "60";
  Alcotest.(check bool) "opposing updates cancelled" false
    (contains total.Server.body "2024M03");
  Server.shutdown t

let test_drain_rejects_updates () =
  let t = boot_server () in
  Server.shutdown t;
  Alcotest.(check bool) "draining" true (Server.draining t);
  let r =
    Server.handle_request t
      (request "POST" "/v1/update" ~body:"set SALES 2024M01 rome 1\n")
  in
  Alcotest.(check int) "updates refused while draining" 503 r.Server.status;
  check_contains "draining diagnostic" r.Server.body "draining";
  let g = Server.handle_request t (request "GET" "/v1/cube/TOTAL") in
  Alcotest.(check int) "reads still answer during drain" 200 g.Server.status;
  Server.shutdown t

(* --- metrics --- *)

let test_metrics_exposition () =
  let c = Obs.create () in
  Obs.with_collector c (fun () ->
      let t = boot_server () in
      for _ = 1 to 5 do
        ignore (Server.handle_request t (request "GET" "/v1/cube/TOTAL"))
      done;
      ignore
        (Server.handle_request t
           (request "POST" "/v1/update" ~body:"set SALES 2024M01 rome 99\n"));
      ignore (Server.handle_request t (request "GET" "/nope"));
      let m = Server.handle_request t (request "GET" "/metrics") in
      Alcotest.(check int) "metrics endpoint" 200 m.Server.status;
      check_contains "prometheus content type" m.Server.content_type "text/plain";
      (* parse the exposition line by line: every sample line is
         [name{labels} value] with a float value *)
      let samples = Hashtbl.create 64 in
      String.split_on_char '\n' m.Server.body
      |> List.iter (fun line ->
             if line <> "" && line.[0] <> '#' then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "unparseable sample line %S" line
               | Some i ->
                   let name = String.sub line 0 i in
                   let v =
                     String.sub line (i + 1) (String.length line - i - 1)
                   in
                   (match float_of_string_opt v with
                   | Some f -> Hashtbl.replace samples name f
                   | None ->
                       Alcotest.failf "non-numeric value %S in %S" v line));
      let get name =
        match Hashtbl.find_opt samples name with
        | Some v -> v
        | None -> Alcotest.failf "metric %s not exposed" name
      in
      (* 5 slices + 1 update + 1 miss + this scrape *)
      Alcotest.(check (float 0.)) "request counter" 8. (get "exl_serve_requests");
      Alcotest.(check (float 0.)) "4xx counter" 1. (get "exl_serve_responses_4xx");
      Alcotest.(check (float 0.)) "commits" 1. (get "exl_serve_commits");
      Alcotest.(check (float 0.)) "coalesced jobs" 1.
        (get "exl_serve_coalesced_jobs");
      Alcotest.(check (float 0.)) "queue drained" 0. (get "exl_serve_queue_depth");
      (* histograms: +Inf bucket equals the count — every request
         except the scrape itself, whose duration is still in flight *)
      Alcotest.(check (float 0.))
        "duration histogram saw every finished request"
        (get "exl_serve_requests" -. 1.)
        (get {|exl_serve_request_seconds_bucket{le="+Inf"}|});
      let buckets =
        Hashtbl.fold
          (fun name v acc ->
            if
              contains name "exl_serve_request_seconds_bucket"
              && not (contains name "+Inf")
            then (name, v) :: acc
            else acc)
          samples []
      in
      Alcotest.(check bool) "finite buckets exposed" true (buckets <> []);
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "bucket within count" true
            (v <= get {|exl_serve_request_seconds_bucket{le="+Inf"}|}))
        buckets;
      Alcotest.(check (float 0.))
        "coalesced batch histogram count" 1.
        (get "exl_serve_coalesced_batch_count");
      Server.shutdown t)

(* --- sockets end to end --- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let read_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Buffer.contents buf
  in
  go ()

(* One-shot client: send a request with [Connection: close], read the
   whole response, split into (status, body). *)
let http ~port ?(headers = []) ?body meth target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let b = Buffer.create 256 in
      Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
      Buffer.add_string b "connection: close\r\n";
      List.iter
        (fun (k, v) -> Buffer.add_string b (k ^ ": " ^ v ^ "\r\n"))
        headers;
      (match body with
      | Some s ->
          Buffer.add_string b
            (Printf.sprintf "content-length: %d\r\n" (String.length s))
      | None -> ());
      Buffer.add_string b "\r\n";
      Option.iter (Buffer.add_string b) body;
      write_all fd (Buffer.contents b);
      let raw = read_all fd in
      let status =
        try Scanf.sscanf raw "HTTP/1.1 %d" (fun d -> d)
        with Scanf.Scan_failure _ | End_of_file ->
          Alcotest.failf "malformed response %S" raw
      in
      let body =
        match Astring_contains.contains raw "\r\n\r\n" with
        | false -> ""
        | true ->
            let rec find i =
              if i + 4 > String.length raw then String.length raw
              else if String.sub raw i 4 = "\r\n\r\n" then i + 4
              else find (i + 1)
            in
            let start = find 0 in
            String.sub raw start (String.length raw - start)
      in
      (status, body))

let test_socket_end_to_end () =
  let t = boot_server () in
  let fd, port = Server.listen_inet ~host:"127.0.0.1" ~port:0 () in
  let server_thread = Server.serve_background t fd in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown t;
      Thread.join server_thread)
    (fun () ->
      (* concurrent readers against the boot snapshot *)
      let readers =
        List.init 4 (fun _ ->
            let out = Atomic.make None in
            let th =
              Thread.create
                (fun () ->
                  Atomic.set out (Some (http ~port "GET" "/v1/cube/TOTAL")))
                ()
            in
            (th, out))
      in
      List.iter
        (fun (th, out) ->
          Thread.join th;
          match Atomic.get out with
          | Some (status, body) ->
              Alcotest.(check int) "concurrent read" 200 status;
              check_contains "boot value" body "30"
          | None -> Alcotest.fail "reader produced no response")
        readers;
      (* read-your-writes across real sockets *)
      let status, body =
        http ~port "POST" "/v1/update" ~body:"set SALES 2024M01 rome 100\n"
      in
      Alcotest.(check int) "socket update" 200 status;
      check_contains "commit report" body "\"committed\":true";
      let status, body = http ~port "GET" "/v1/cube/TOTAL" in
      Alcotest.(check int) "socket read back" 200 status;
      check_contains "write visible" body "120";
      (* pipelining: two requests in one segment, two responses back *)
      let fd2 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd2 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          write_all fd2
            "GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
          let raw = read_all fd2 in
          let count = ref 0 in
          let rec scan i =
            match String.index_from_opt raw i 'H' with
            | Some j when j + 8 <= String.length raw ->
                if String.sub raw j 8 = "HTTP/1.1" then incr count;
                scan (j + 1)
            | _ -> ()
          in
          scan 0;
          Alcotest.(check int) "two pipelined responses" 2 !count);
      (* a malformed request gets a 400, not a hung or dead connection *)
      let fd3 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd3 with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd3 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          write_all fd3 "definitely not http\r\n\r\n";
          let raw = read_all fd3 in
          check_contains "parse error answered" raw "400"))

(* --- concurrent point-in-time reads (the PR 8 scenario, threaded) --- *)

(* Readers hammer [cube_as_of] while the single writer commits dated
   batches: every read must observe exactly one committed version —
   value [10 * i + 1] for some already-committed batch [i] — never a
   torn or intermediate state. *)
let test_concurrent_asof_reads () =
  let engine = Engine.Exlengine.create () in
  ok
    (Engine.Exlengine.register_program engine ~name:"p"
       "cube A(q: quarter);\nD := A + 1;\n");
  ok
    (Engine.Exlengine.load_elementary engine
       (cube_of "A"
          [ ("q", Domain.Period (Some Calendar.Quarter)) ]
          [ [ vq 2024 1; vf 1. ] ]));
  let date i = Calendar.Date.make ~year:2026 ~month:1 ~day:(1 + i) in
  ignore (ok (Engine.Exlengine.recompute_all ~as_of:(date 0) engine));
  ok (Engine.Exlengine.warm engine);
  let batches = 15 and committed = Atomic.make 0 in
  let expected i = if i = 0 then 2. else (10. *. float_of_int i) +. 1. in
  let failures = Atomic.make [] in
  let fail msg = Atomic.set failures (msg :: Atomic.get failures) in
  let reader _ =
    (* read at the frontier: any already-committed version is legal *)
    for _ = 1 to 400 do
      let hi = Atomic.get committed in
      match Engine.Exlengine.cube_as_of engine (date batches) "D" with
      | None -> fail "as-of read lost every version"
      | Some cube -> (
          match Cube.find cube (key [ vq 2024 1 ]) with
          | None -> fail "version lost its fact"
          | Some (Value.Float v) ->
              let legal = ref false in
              for i = hi - 1 to Atomic.get committed + 1 do
                if i >= 0 && i <= batches && expected i = v then legal := true
              done;
              if not !legal then
                fail (Printf.sprintf "torn read: %g at frontier %d" v hi)
          | Some v -> fail ("non-float measure: " ^ Value.to_string v))
    done
  in
  let readers = List.init 4 (fun i -> Thread.create reader i) in
  for i = 1 to batches do
    ignore
      (ok
         (Engine.Exlengine.apply_updates ~as_of:(date i) engine
            [
              Engine.Update.set ~cube:"A" ~key:[ vq 2024 1 ]
                (vf (10. *. float_of_int i));
            ]));
    Atomic.set committed i
  done;
  List.iter Thread.join readers;
  (match Atomic.get failures with
  | [] -> ()
  | msg :: _ -> Alcotest.fail msg);
  (* and the frozen past stays frozen: every dated version still
     answers with its own value after all the churn *)
  List.iter
    (fun i ->
      match Engine.Exlengine.cube_as_of engine (date i) "D" with
      | None -> Alcotest.failf "version %d vanished" i
      | Some cube ->
          Alcotest.(check (option value))
            (Printf.sprintf "version %d intact" i)
            (Some (vf (expected i)))
            (Cube.find cube (key [ vq 2024 1 ])))
    [ 0; 1; 7; batches ]

let suite =
  [
    ("http: request line, path and query decoding", `Quick, test_parse_request_line);
    ("http: pipelined requests and bare LF", `Quick, test_parse_pipelined);
    ("http: every proper prefix is incomplete", `Quick, test_parse_incomplete);
    ("http: malformed input fails closed", `Quick, test_parse_fails_closed);
    ("http: parser totality fuzz campaign", `Quick, test_fuzz_campaign);
    ("route: index, healthz and catalog", `Quick, test_route_catalog);
    ("route: slices, filters, limits and sdmx", `Quick, test_route_slice_filters);
    ("route: updates commit and as-of reads answer", `Quick, test_route_update_and_asof);
    ("route: quarantined cube serves 503 diagnostics", `Quick, test_route_quarantined);
    ("writer: snapshot isolation and 429 overflow", `Quick, test_snapshot_isolation_and_429);
    ("writer: queued batches coalesce into one commit", `Quick, test_coalescing_merges_batches);
    ("writer: drain refuses updates, keeps reads", `Quick, test_drain_rejects_updates);
    ("metrics: prometheus exposition parses", `Quick, test_metrics_exposition);
    ("socket: concurrent clients end to end", `Quick, test_socket_end_to_end);
    ("history: concurrent as-of reads see no torn state", `Quick, test_concurrent_asof_reads);
  ]
