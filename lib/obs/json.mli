(** A minimal JSON value type with a printer and a parser.

    The toolchain has no JSON library; the exporters need escaping and
    the tests (and the bench regression guard) need to read what they
    wrote back.  This is deliberately small: no streaming, strings are
    decoded for the standard escapes only. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Integral floats print without a fraction;
    non-finite numbers print as [null]. *)

val parse : string -> (t, string) result

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val number : t -> float option
