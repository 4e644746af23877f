(** A minimal HTTP/1.1 message layer for {!Server}.

    The toolchain has no HTTP library; the daemon needs exactly one
    thing from this module: a total request parser over raw bytes.
    [parse] never raises — malformed input maps to a structured
    {!error} (the test suite's fuzz campaign checks this), oversized
    input maps to 413/431 so the accept loop can bound memory before a
    request is even complete, and a short read maps to [Incomplete] so
    the connection loop knows to keep reading. *)

type limits = {
  max_request_line : int;  (** bytes in [METHOD SP target SP version] *)
  max_header_count : int;
  max_header_bytes : int;  (** one [name: value] line *)
  max_body : int;  (** declared [Content-Length] ceiling *)
}

val default_limits : limits
(** 4 KiB request line, 64 headers of 8 KiB each, 4 MiB body. *)

type request = {
  meth : string;  (** uppercase: ["GET"], ["POST"], ... *)
  target : string;  (** raw request target, undecoded *)
  path : string list;  (** decoded, split on [/], no empty segments *)
  query : (string * string) list;  (** decoded, in order of appearance *)
  version : string;  (** ["HTTP/1.1"] *)
  headers : (string * string) list;  (** names lowercased, in order *)
  body : string;
}

type error = { status : int; reason : string }
(** [status] is the HTTP status the connection should answer with
    (400, 413, 431 or 501); [reason] is a short diagnostic. *)

type parse_result =
  | Complete of request * int
      (** A full message and the bytes it consumed (pipelining: the
          next request starts at that offset). *)
  | Incomplete  (** Valid so far; need more bytes. *)
  | Failed of error

val parse : ?limits:limits -> string -> int -> parse_result
(** [parse buf off] parses one request starting at [off].  Accepts
    both CRLF and bare LF line endings.  [Transfer-Encoding] is not
    implemented (501); bodies require [Content-Length]. *)

val header : request -> string -> string option
(** Case-insensitive lookup, first match. *)

val query_param : request -> string -> string option

val wants_close : request -> bool
(** [Connection: close], or an HTTP/1.0 client without keep-alive. *)

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  status:int ->
  string ->
  string
(** Serialize a response with [Content-Length] and the given body.
    [content_type] defaults to [application/json]. *)
