(** A FIFO of ints in one flat array: a ring with a head cursor and a
    count, so pushing and popping never allocate.  The ring doubles when
    a push finds it full, so a caller that knows its bound sizes it once
    at [create] and never pays for growth. *)

type t

(** [create ~capacity] is an empty ring with room for [capacity]
    elements before it first grows. *)
val create : capacity:int -> t

val length : t -> int
val is_empty : t -> bool

(** [push t v] appends [v] at the tail. *)
val push : t -> int -> unit

(** [peek t] is the head (oldest element); raises [Invalid_argument] on
    an empty ring. *)
val peek : t -> int

(** [pop t] removes and returns the head; raises [Invalid_argument] on
    an empty ring. *)
val pop : t -> int

(** [get t k] is the [k]-th oldest element, [0 <= k < length t]. *)
val get : t -> int -> int

val clear : t -> unit

(** [copy t] is an independent ring with the same contents. *)
val copy : t -> t

(** [assign t ~from] makes [t]'s contents equal to [from]'s. *)
val assign : t -> from:t -> unit
