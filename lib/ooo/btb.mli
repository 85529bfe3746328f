(** Branch target buffer: 256-entry direct-mapped (Figure 4).

    Deeply stateful and program-dependent, so purge resets it
    ({!flush}). *)

type t

val create : ?entries:int -> unit -> t

(** [predict t ~pc] is the cached target for a control instruction. *)
val predict : t -> pc:int -> int option

(** [predicts t ~pc ~target] is [predict t ~pc = Some target], without
    allocating. *)
val predicts : t -> pc:int -> target:int -> bool

(** [update t ~pc ~target] installs/overwrites the mapping. *)
val update : t -> pc:int -> target:int -> unit

val flush : t -> unit

(** [occupancy t] — valid entries (tests). *)
val occupancy : t -> int

(** Save/restore (see {!Tournament.snapshot}). *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
