(** MSI coherence states, ordered I < S < M.

    RiscyOO's LLC keeps the L1s coherent with an MSI directory protocol
    (paper Section 5.4.1, citing the CCP protocol of Vijayaraghavan et
    al.). *)

type t = I | S | M

(** [rank] numbers the states in order: I→0, S→1, M→2. *)
val rank : t -> int

val leq : t -> t -> bool
val lt : t -> t -> bool

(** [compatible held requested] holds when another child may hold [held]
    while one child acquires [requested] (M is exclusive). *)
val compatible : t -> t -> bool

(** [needed_for ~store] is the minimum state for an access: S for loads,
    M for stores. *)
val needed_for : store:bool -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
