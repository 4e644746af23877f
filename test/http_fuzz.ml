open Serve

type violation = { input : string; reason : string }

let allowed_failure_status = [ 400; 413; 431; 501 ]

(* ----- the property ----- *)

let check ?(limits = Http.default_limits) input =
  match Http.parse ~limits input 0 with
  | exception exn ->
      Error (Printf.sprintf "parse raised %s" (Printexc.to_string exn))
  | Http.Failed e ->
      if List.mem e.Http.status allowed_failure_status then Ok ()
      else
        Error
          (Printf.sprintf "Failed with unexpected status %d (%s)" e.Http.status
             e.Http.reason)
  | Http.Incomplete -> Ok ()
  | Http.Complete (_, consumed) ->
      if consumed <= 0 then Error "Complete consumed nothing"
      else if consumed > String.length input then
        Error "Complete consumed past the end of the input"
      else (
        (* Pipelining stability: a complete message must parse the
           same when more bytes follow it. *)
        match Http.parse ~limits (input ^ "XYZ") 0 with
        | exception exn ->
            Error
              (Printf.sprintf "parse raised %s with trailing bytes"
                 (Printexc.to_string exn))
        | Http.Complete (_, consumed') when consumed' = consumed -> Ok ()
        | Http.Complete (_, consumed') ->
            Error
              (Printf.sprintf
                 "trailing bytes moved the message boundary (%d -> %d)"
                 consumed consumed')
        | Http.Incomplete | Http.Failed _ ->
            Error "trailing bytes demoted a complete message")

(* ----- the generator ----- *)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let junk rng n =
  String.init n (fun _ -> Char.chr (Random.State.int rng 256))

let token rng =
  pick rng
    [
      "GET"; "POST"; "HEAD"; "get"; "G E T"; ""; "P\x00ST"; "DELETE";
      String.make (Random.State.int rng 64) 'A';
    ]

let target rng =
  pick rng
    [
      "/"; "/v1/cube/GDP"; "/v1/cube/GDP?r=north&limit=5"; "no-slash";
      "/%"; "/%2"; "/%zz/%41"; "/a/../../etc"; "/?" ^ String.make 40 '&';
      "/" ^ String.make (Random.State.int rng 6000) 'x';
    ]

let version rng =
  pick rng [ "HTTP/1.1"; "HTTP/1.0"; "HTTP/2"; "http/1.1"; ""; "HTTP/1.1\x07" ]

let header_line rng =
  pick rng
    [
      "host: localhost"; "Content-Length: 5"; "content-length: -3";
      "content-length: 99999999999999999999"; "content-length: abc";
      "no-colon-here"; ": empty-name"; "sp ace: v"; "x: " ^ String.make 9000 'y';
      String.make (Random.State.int rng 9000) 'h' ^ ": v";
      "transfer-encoding: chunked"; "connection: close";
    ]

let eol rng = pick rng [ "\r\n"; "\n"; "\r"; "" ]

let case rng =
  match Random.State.int rng 6 with
  | 0 ->
      (* structured request with mutated pieces *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s%s" (token rng) (target rng) (version rng)
           (eol rng));
      for _ = 1 to Random.State.int rng 70 do
        Buffer.add_string buf (header_line rng);
        Buffer.add_string buf (eol rng)
      done;
      Buffer.add_string buf (eol rng);
      Buffer.add_string buf (junk rng (Random.State.int rng 64));
      Buffer.contents buf
  | 1 ->
      (* a well-formed request, truncated mid-flight *)
      let full =
        "POST /v1/update HTTP/1.1\r\nhost: x\r\ncontent-length: 40\r\n\r\n"
        ^ String.make 40 'b'
      in
      String.sub full 0 (Random.State.int rng (String.length full + 1))
  | 2 ->
      (* content-length disagreeing with the actual body *)
      Printf.sprintf
        "POST /v1/update HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
        (Random.State.int rng 100)
        (String.make (Random.State.int rng 100) 'b')
  | 3 -> junk rng (Random.State.int rng 512)
  | 4 ->
      (* unterminated giant request line / header block *)
      String.make (4000 + Random.State.int rng 10000) (pick rng [ 'A'; ':' ])
  | _ ->
      (* two pipelined messages, the second possibly cut *)
      let one = "GET /healthz HTTP/1.1\r\n\r\n" in
      let two = "GET /v1/cubes HTTP/1.1\r\nhost: x\r\n\r\n" in
      one ^ String.sub two 0 (Random.State.int rng (String.length two + 1))

(* ----- shrinking (greedy chunk removal, lib/fuzz style) ----- *)

let shrink ?(budget = 400) ?limits input reason =
  let budget = ref budget in
  let still candidate =
    if !budget <= 0 then false
    else begin
      decr budget;
      match check ?limits candidate with Error _ -> true | Ok () -> false
    end
  in
  let current = ref input and progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    (* remove chunks, biggest first *)
    let n = String.length !current in
    let chunk = ref (max 1 (n / 2)) in
    while (not !progress) && !chunk >= 1 do
      let c = !chunk in
      let i = ref 0 in
      while (not !progress) && !i + c <= String.length !current do
        let cand =
          String.sub !current 0 !i
          ^ String.sub !current (!i + c) (String.length !current - !i - c)
        in
        if still cand then begin
          current := cand;
          progress := true
        end
        else i := !i + c
      done;
      chunk := c / 2
    done
  done;
  let final_reason =
    match check ?limits !current with Error r -> r | Ok () -> reason
  in
  { input = !current; reason = final_reason }

let run ?limits ~seed ~count () =
  let rng = Random.State.make [| seed |] in
  let rec loop i =
    if i >= count then None
    else
      let input = case rng in
      match check ?limits input with
      | Ok () -> loop (i + 1)
      | Error reason -> Some (shrink ?limits input reason)
  in
  loop 0
