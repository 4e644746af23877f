(* Closed-loop load generator for exlserve (`bench/main.exe -- guard`).

   Boots the daemon in-process on an ephemeral loopback port, then
   drives it with closed-loop client threads over real TCP — each
   client keeps one persistent connection and one outstanding request,
   so offered load adapts to the server instead of overrunning it.

   Scenarios:
   - read-only: every client GETs cube slices;
   - mixed: readers as above plus writers POSTing small update
     batches, which exercises group commit on the posting threads and
     snapshot publication under read pressure.

   Reports per-scenario throughput and latency quantiles, plus the
   server-side commit count scraped from /metrics — the
   updates-per-commit ratio is group commit at work. *)

open Matrix

type row = {
  label : string;
  errors : int;  (** 5xx, transport failures, malformed responses *)
  rejected : int;  (** 429 admission-control pushback (not an error) *)
  throughput : float;  (** 2xx responses per second *)
  p50_ms : float;
  p99_ms : float;
  updates : int;  (** update batches POSTed (mixed scenario) *)
  commits : int;  (** server-side commits those batches were merged into *)
}

(* --- fixture: three years of sales across ten shops --- *)

let shops =
  [| "rome"; "milan"; "turin"; "naples"; "bari"; "genoa"; "parma"; "pisa";
     "como"; "lecce" |]

let months =
  Array.init 36 (fun i -> Printf.sprintf "%04dM%02d" (2020 + (i / 12)) (1 + (i mod 12)))

let sales_program =
  "cube SALES(m: month, shop: string);\n\
   TOTAL := sum(SALES, group by m);\n\
   ROME := filter(SALES, shop = \"rome\");\n"

let boot () =
  (* the daemon's counters (and /metrics) need an ambient collector *)
  Obs.install (Obs.create ());
  let engine = Engine.Exlengine.create () in
  (match Engine.Exlengine.register_program engine ~name:"load" sales_program with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let schema =
    Schema.make ~name:"SALES"
      ~dims:[ ("m", Domain.Period (Some Calendar.Month)); ("shop", Domain.String) ]
      ()
  in
  let rows =
    Array.to_list months
    |> List.concat_map (fun m ->
           Array.to_list shops
           |> List.mapi (fun i shop ->
                  [
                    Value.of_string_guess m;
                    Value.String shop;
                    Value.Float (100. +. float_of_int i);
                  ]))
  in
  (match
     Engine.Exlengine.load_elementary engine (Cube.of_rows schema rows)
   with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (match Engine.Exlengine.recompute_all engine with
  | Ok report -> (
      (match Engine.Exlengine.warm engine with Ok () | Error _ -> ());
      let server = Serve.Server.create ~report engine in
      let fd, port = Serve.Server.listen_inet ~host:"127.0.0.1" ~port:0 () in
      let th = Serve.Server.serve_background server fd in
      (server, th, port))
  | Error msg -> failwith msg)

(* --- a keep-alive HTTP client --- *)

type conn = { fd : Unix.file_descr; mutable pending : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; pending = "" }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let header_end s =
  let n = String.length s in
  let rec go i =
    if i + 4 > n then None
    else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
    else go (i + 1)
  in
  go 0

let content_length headers =
  let lower = String.lowercase_ascii headers in
  match
    String.split_on_char '\n' lower
    |> List.find_opt (fun l ->
           String.length l >= 15 && String.sub l 0 15 = "content-length:")
  with
  | None -> 0
  | Some l -> (
      let v = String.trim (String.sub l 15 (String.length l - 15)) in
      match int_of_string_opt (String.trim v) with Some n -> n | None -> 0)

(* One request-response round trip on a persistent connection. *)
let roundtrip conn ~meth ~target ?(body = "") () =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
  if body <> "" then
    Buffer.add_string b
      (Printf.sprintf "content-length: %d\r\n" (String.length body));
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  write_all conn.fd (Buffer.contents b);
  let chunk = Bytes.create 8192 in
  let rec fill () =
    match header_end conn.pending with
    | Some hdr ->
        let len = content_length (String.sub conn.pending 0 hdr) in
        let total = hdr + len in
        if String.length conn.pending >= total then begin
          let status = Scanf.sscanf conn.pending "HTTP/1.1 %d" (fun d -> d) in
          conn.pending <-
            String.sub conn.pending total (String.length conn.pending - total);
          status
        end
        else read_more ()
    | None -> read_more ()
  and read_more () =
    match Unix.read conn.fd chunk 0 8192 with
    | 0 -> failwith "connection closed mid-response"
    | n ->
        conn.pending <- conn.pending ^ Bytes.sub_string chunk 0 n;
        fill ()
  in
  fill ()

(* --- client loops --- *)

type client_tally = {
  mutable ok : int;
  mutable bad : int;
  mutable pushed_back : int;
  mutable latencies : float list;
}

let reader_targets =
  [| "/v1/cube/TOTAL"; "/v1/cube/SALES?shop=rome"; "/v1/cube/ROME";
     "/v1/cube/SALES?limit=50"; "/v1/cubes" |]

let run_client ~port ~deadline ~next_request =
  let tally = { ok = 0; bad = 0; pushed_back = 0; latencies = [] } in
  let conn = connect port in
  Fun.protect
    ~finally:(fun () -> close conn)
    (fun () ->
      let i = ref 0 in
      while Unix.gettimeofday () < deadline do
        let meth, target, body = next_request !i in
        incr i;
        let t0 = Unix.gettimeofday () in
        match roundtrip conn ~meth ~target ~body () with
        | status ->
            let dt = Unix.gettimeofday () -. t0 in
            if status >= 200 && status < 300 then begin
              tally.ok <- tally.ok + 1;
              tally.latencies <- dt :: tally.latencies
            end
            else if status = 429 then tally.pushed_back <- tally.pushed_back + 1
            else tally.bad <- tally.bad + 1
        | exception _ -> tally.bad <- tally.bad + 1
      done);
  tally

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (p *. float_of_int n))))

(* Scrape a counter straight off the exposition format, with a
   one-shot connection that reads until EOF. *)
let scrape_counter ~port name =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd "GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n";
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
      in
      go ();
      let line =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.find_opt (fun l ->
               String.length l > String.length name
               && String.sub l 0 (String.length name) = name
               && l.[String.length name] = ' ')
      in
      match line with
      | None -> 0
      | Some l -> (
          match String.rindex_opt l ' ' with
          | None -> 0
          | Some i ->
              int_of_float
                (Option.value ~default:0.
                   (float_of_string_opt
                      (String.sub l (i + 1) (String.length l - i - 1))))))

let run_scenario ~port ~label ~duration ~readers ~writers =
  let commits_before = scrape_counter ~port "exl_serve_commits" in
  let deadline = Unix.gettimeofday () +. duration in
  let t0 = Unix.gettimeofday () in
  let results = Array.make (readers + writers) None in
  let spawn idx next_request =
    Thread.create
      (fun () -> results.(idx) <- Some (run_client ~port ~deadline ~next_request))
      ()
  in
  let threads =
    List.init readers (fun r ->
        spawn r (fun i ->
            ( "GET",
              reader_targets.((i + r) mod Array.length reader_targets),
              "" )))
    @ List.init writers (fun w ->
          spawn (readers + w) (fun i ->
              let m = months.((i + (7 * w)) mod Array.length months) in
              let shop = shops.((i + w) mod Array.length shops) in
              let v = float_of_int (200 + ((i + w) mod 97)) in
              ( "POST",
                "/v1/update",
                Printf.sprintf "set SALES %s %s %g\n" m shop v )))
  in
  List.iter Thread.join threads;
  let seconds = Unix.gettimeofday () -. t0 in
  let commits_after = scrape_counter ~port "exl_serve_commits" in
  let tallies =
    Array.to_list results |> List.filter_map Fun.id
  in
  let ok = List.fold_left (fun a t -> a + t.ok) 0 tallies in
  let bad = List.fold_left (fun a t -> a + t.bad) 0 tallies in
  let pushed = List.fold_left (fun a t -> a + t.pushed_back) 0 tallies in
  let updates =
    (* every writer 2xx is one accepted update batch *)
    List.filteri (fun i _ -> i >= readers) (Array.to_list results)
    |> List.filter_map Fun.id
    |> List.fold_left (fun a t -> a + t.ok) 0
  in
  let latencies =
    List.concat_map (fun t -> t.latencies) tallies |> Array.of_list
  in
  Array.sort compare latencies;
  {
    label;
    errors = bad;
    rejected = pushed;
    throughput = (if seconds > 0. then float_of_int ok /. seconds else 0.);
    p50_ms = 1000. *. percentile latencies 0.50;
    p99_ms = 1000. *. percentile latencies 0.99;
    updates;
    commits = max 0 (commits_after - commits_before);
  }

let rows ?(duration = 0.8) () =
  let server, th, port = boot () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      Thread.join th)
    (fun () ->
      [
        run_scenario ~port ~label:"read-only 4 clients" ~duration ~readers:4
          ~writers:0;
        run_scenario ~port ~label:"mixed 4 readers + 2 writers" ~duration
          ~readers:4 ~writers:2;
      ])

let print_rows rows =
  Printf.printf "%-30s %9s %7s %7s %9s %9s %8s %8s\n" "scenario" "req/s"
    "p50ms" "p99ms" "errors" "rejected" "updates" "commits";
  List.iter
    (fun r ->
      Printf.printf "%-30s %9.0f %7.3f %7.3f %9d %9d %8d %8d\n" r.label
        r.throughput r.p50_ms r.p99_ms r.errors r.rejected r.updates r.commits)
    rows
