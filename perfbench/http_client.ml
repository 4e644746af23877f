(* A keep-alive HTTP/1.1 client for the serve_mixed load generator:
   one outstanding request per connection, Content-Length bodies. *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let request ~meth ~target ~body =
  let b = Buffer.create (128 + String.length body) in
  Printf.bprintf b "%s %s HTTP/1.1\r\nhost: localhost\r\n" meth target;
  if body <> "" then
    Printf.bprintf b "content-type: text/plain\r\ncontent-length: %d\r\n"
      (String.length body);
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let find_header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

let content_length head =
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i
           when String.lowercase_ascii (String.trim (String.sub line 0 i))
                = "content-length" ->
             int_of_string_opt
               (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)
  |> Option.value ~default:0

(* One round trip; [(status, body)].  Raises on transport failure. *)
let roundtrip c raw =
  write_all c.fd raw 0;
  let rec read_until_complete () =
    let s = Buffer.contents c.buf in
    match find_header_end s with
    | Some hdr ->
        let total = hdr + content_length (String.sub s 0 hdr) in
        if String.length s >= total then begin
          let status = Scanf.sscanf s "HTTP/1.%d %d" (fun _ st -> st) in
          let body = String.sub s hdr (total - hdr) in
          Buffer.clear c.buf;
          Buffer.add_string c.buf (String.sub s total (String.length s - total));
          (status, body)
        end
        else more ()
    | None -> more ()
  and more () =
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> failwith "connection closed mid-response"
    | n ->
        Buffer.add_subbytes c.buf c.chunk 0 n;
        read_until_complete ()
  in
  read_until_complete ()

(* A one-shot GET on its own connection. *)
let get port target =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () -> roundtrip c (request ~meth:"GET" ~target ~body:""))

(* A counter off the daemon's Prometheus exposition; 0 when absent. *)
let scrape_counter port name =
  match get port "/metrics" with
  | exception _ -> 0.
  | _, body ->
      String.split_on_char '\n' body
      |> List.find_map (fun line ->
             match String.split_on_char ' ' line with
             | [ n; v ] when n = name -> float_of_string_opt v
             | _ -> None)
      |> Option.value ~default:0.
