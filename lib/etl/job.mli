(** A job: the ordered composition of flows for a whole mapping. *)

type t = { name : string; flows : Flow.t list }

val make : name:string -> Flow.t list -> t
