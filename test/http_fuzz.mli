(** Fuzz campaign for the HTTP request parser, in the [lib/fuzz] style:
    seeded generation of adversarial raw request bytes, a totality
    property, and an integrated greedy shrinker that re-derives a
    minimal violating input.

    The property: {!Serve.Http.parse} is {e total} over arbitrary bytes —

    - it never raises;
    - [Failed] always carries one of the statuses the connection loop
      knows how to answer (400, 413, 431, 501);
    - [Complete] consumes a positive prefix no longer than the input,
      and stays stable when more bytes arrive (pipelining);
    - [Incomplete] is only ever returned for inputs still within the
      configured limits' reach.

    The generator covers these attack shapes:
    malformed request lines, oversized and unterminated headers,
    truncated and oversized bodies, binary junk, bare-LF endings and
    broken percent-escapes. *)

type violation = {
  input : string;  (** shrunk offending bytes *)
  reason : string;  (** which clause of the property failed *)
}

val check : ?limits:Serve.Http.limits -> string -> (unit, string) result
(** Run the totality property on one input. *)

val case : Random.State.t -> string
(** One generated adversarial input. *)

val run :
  ?limits:Serve.Http.limits -> seed:int -> count:int -> unit -> violation option
(** Generate [count] cases from [seed]; on the first violation, shrink
    it (greedy chunk removal, budgeted) and report it.  [None] means
    the parser survived the campaign. *)
