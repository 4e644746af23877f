open Matrix

(** Terms of the extended dependency language.

    Classical tgds only allow variables and constants; the paper extends
    them with scalar expressions "for the measure or for one of the
    dimensions" (Section 4.1) — e.g. [3 * y], [quarter(t)], [t - 1].
    Terms are those expressions. *)

type t =
  | Var of string
  | Const of Value.t
  | Shifted of t * int
      (** Time shift on a temporal dimension term: [q - 1] in the
          paper's tgd (5) is [Shifted (Var "q", -1)]. *)
  | Dim_fn of string * t  (** [quarter(t)] in tgd (1). *)
  | Scalar_fn of string * float list * t  (** [log(2, y)]. *)
  | Binapp of Ops.Binop.t * t * t  (** [y1 * y2], [100 * y]. *)
  | Neg of t
  | Coalesce of t * t
      (** First defined (non-null) value — used by the outer-combine
          variant of vectorial operators (default values for missing
          tuples). *)

val vars : t -> string list
(** Variables occurring, without duplicates, left to right. *)

val is_var : t -> bool

val substitute : (string -> t option) -> t -> t
(** Capture-avoiding is trivial here (no binders): replace variables
    by terms. *)

val rename : prefix:string -> t -> t
(** Prefix every variable name (used to freshen a tgd's variables
    before composing it with another). *)

val normalize_shift : t -> t
(** Rewrite [Shifted] into plain arithmetic ([t + 1] / [t - 1]);
    [eval] treats both identically. *)

val eval : (string -> Value.t option) -> t -> Value.t option
(** Evaluate under a variable assignment; [None] when a variable is
    unbound or an operation is undefined (division by zero, dimension
    function on a non-temporal value, ...). *)

val equal : t -> t -> bool
val to_string : t -> string
(** Paper-style notation: [q - 1], [quarter(t)], [y1 * y2],
    [(y1 - y2) * 100 / y1]. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_string], appended to a buffer. *)
