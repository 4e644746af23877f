(** Dictionary encoding for column views: a dense int code per distinct
    value (distinctness is [Value.equal], so [Int 1] and [Float 1.]
    share a code exactly as they share a slot in the row stores).
    Dictionaries are append-only — codes, once issued, stay valid for
    as long as any reader holds them — which is what makes a cube
    version's column view shareable by its readers. *)

type t

val create : unit -> t
val size : t -> int
(** The number of codes issued: codes are [0 .. size - 1]. *)

val encode : t -> Value.t -> int
(** Find-or-add: the code of the value, issuing a fresh one on first
    sight. *)

val decode : t -> int -> Value.t
(** The first value encoded under the code.
    @raise Invalid_argument on a code out of range. *)

val is_null : t -> int -> bool

val xlate : t -> t -> int array option
(** Code translation between dictionaries: [xlate a b].(c) is [b]'s
    code for [a]'s value [c], or -1 when [b] never saw that value
    ([b] is only probed, never extended); [None] when [a == b].  Every
    view encodes its columns in dictionaries of its own, so a join
    translates one side's codes into the other's space: O(|a|) once
    instead of a hash probe per row. *)
