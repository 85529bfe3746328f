(** Generic set-associative tag/metadata array, shared by the L1s, the
    LLC, and the TLBs.  Data contents are not modeled (the timing model
    tracks state, not values); ['a] is the per-line metadata (MSI state,
    directory sharer sets, dirty bits, ...). *)

type 'a t

val create : sets:int -> ways:int -> 'a t
val sets : 'a t -> int
val ways : 'a t -> int

(** [find t ~set ~tag] is [Some (way, meta)] for a valid matching line. *)
val find : 'a t -> set:int -> tag:int -> (int * 'a) option

(** [read t ~set ~way] is [Some (tag, meta)] if the way is valid. *)
val read : 'a t -> set:int -> way:int -> (int * 'a) option

(** [is_valid t ~set ~way] is [read t ~set ~way <> None], without
    allocating. *)
val is_valid : 'a t -> set:int -> way:int -> bool

(** [fill t ~set ~way ~tag meta] installs a line (overwrites). *)
val fill : 'a t -> set:int -> way:int -> tag:int -> 'a -> unit

(** [update t ~set ~way meta] changes the metadata of a valid line; raises
    [Invalid_argument] if invalid. *)
val update : 'a t -> set:int -> way:int -> 'a -> unit

val invalidate : 'a t -> set:int -> way:int -> unit

(** [invalid_way t ~set] is the lowest invalid way, if any. *)
val invalid_way : 'a t -> set:int -> int option

val count_valid : 'a t -> int

(** [iter_valid f t] applies [f set way tag meta] to every valid line. *)
val iter_valid : (int -> int -> int -> 'a -> unit) -> 'a t -> unit

(** [invalidate_all t] clears every line (whole-structure flush). *)
val invalidate_all : 'a t -> unit

(** Value snapshot of tags, valid bits, and metadata. *)
type 'a checkpoint

(** [save ?copy t] captures the array.  Pass [copy] when ['a] is a
    mutable record so the snapshot owns its own metadata (defaults to
    identity, correct for immutable metadata). *)
val save : ?copy:('a -> 'a) -> 'a t -> 'a checkpoint

(** [restore ?copy t ck] overwrites [t] in place with [ck]; the same
    [copy] keeps the checkpoint reusable after the restored machine
    mutates its lines. *)
val restore : ?copy:('a -> 'a) -> 'a t -> 'a checkpoint -> unit
