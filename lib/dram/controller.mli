(** Uniform front for the two DRAM controller models, so the LLC is
    agnostic to which one is plugged in. *)

type req = { read : bool; line : int; tag : int }

type t

val constant :
  ?trace:Trace.t -> latency:int -> max_outstanding:int -> stats:Stats.t -> unit -> t

val reordering : ?trace:Trace.t -> Fr_fcfs.config -> stats:Stats.t -> t
val can_accept : t -> bool
val accept : t -> now:int -> req -> unit
val tick : t -> now:int -> respond:(tag:int -> line:int -> unit) -> unit
val outstanding : t -> int
val max_outstanding : t -> int

(** Value snapshot of the active backend's state. *)
type checkpoint

val save : t -> checkpoint

(** [restore t ck] — raises [Invalid_argument] if [ck] came from the
    other backend. *)
val restore : t -> checkpoint -> unit

(** [fold_state s t] feeds the active backend's structure state to [s]
    (quiet-cycle signature and dump oracle, see {!Mi6_util.Statesig}). *)
val fold_state : Statesig.sink -> t -> unit
