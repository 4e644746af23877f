(** Dimension tuples — the keys of a cube's partial function.

    A cube tuple [(x1, ..., xn, y)] is split into its key [(x1, ..., xn)]
    (this module) and its measure [y].  Keys are immutable value arrays
    with structural comparison and hashing, usable in maps and hash
    tables. *)

type t = private Value.t array

val of_array : Value.t array -> t
(** Takes ownership of the array; callers must not mutate it afterwards. *)

val of_list : Value.t list -> t
val to_array : t -> Value.t array  (** Returns a copy. *)

val to_list : t -> Value.t list
val arity : t -> int
val get : t -> int -> Value.t
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Agrees with {!equal}, combining {!Value.hash} of each component;
    allocates nothing when the components' hashes do not.  Keys that
    differ in one date or period component hash in that component's
    calendar order; the iteration order of a {!Table} is still
    unspecified. *)


val project : t -> int array -> t
(** [project t idxs] keeps the components at [idxs], in that order. *)

val append : t -> Value.t -> Value.t array
(** The full cube tuple [(x1, ..., xn, y)] as a fresh array. *)

val to_string : t -> string

module Table : sig
  include Hashtbl.S with type key = t

  val find_multi : 'a list t -> key -> 'a list
  (** The bucket bound to [key], or [[]]. *)

  val add_multi : 'a list t -> key -> 'a -> unit
  (** Cons onto the bucket bound to [key], creating it if absent. *)

  val filter_multi : 'a list t -> key -> ('a -> bool) -> unit
  (** Drop bucket entries failing the predicate; removes the binding
      when the bucket empties. *)
end
module Map : Map.S with type key = t
module Set : Set.S with type elt = t
