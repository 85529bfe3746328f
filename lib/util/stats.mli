(** Named counters and simple summary statistics for simulator runs.

    Each simulated component owns a [t] and bumps counters by name; the
    benchmark harness reads them back to compute the paper's metrics
    (instructions, cycles, misses per kilo-instruction, stall fractions). *)

type t

val create : unit -> t

(** [incr t name] adds one to counter [name], creating it at zero first. *)
val incr : t -> string -> unit

(** [add t name k] adds [k]. *)
val add : t -> string -> int -> unit

(** A counter handle, bound once (typically at a component's [create])
    so that the per-cycle path bumps an [int ref] without building or
    hashing the name.

    - The handle resolves its cell lazily, on the first {!bump}.  A
      counter that is never bumped therefore never appears in {!names},
      {!to_assoc} or {!pp}, exactly as with {!incr}.
    - Handles on the same name share one cell, with each other and with
      {!incr}/{!add}/{!set}/{!get} on that name; a handle made before
      [set] on its name picks up the cell that [set] created.
    - {!reset} and {!restore} rewrite cells in place and never remove
      one, so a handle stays valid across checkpoints: bumps after
      [restore ~into] land in the live table.  Snapshots from {!copy}
      and {!diff} are separate tables and do not move. *)
type counter

(** [counter t name] is a handle on counter [name] of [t]. *)
val counter : t -> string -> counter

(** [bump c] adds one to the handle's counter. *)
val bump : counter -> unit

(** [get t name] is the current value, 0 if never touched. *)
val get : t -> string -> int

(** [set t name v] overwrites the counter. *)
val set : t -> string -> int -> unit

(** [reset t] zeroes every counter. *)
val reset : t -> unit

(** [names t] is the sorted list of counter names. *)
val names : t -> string list

(** [per_kilo t ~num ~den] is [1000 * num / den] as a float, 0 when the
    denominator counter is zero — the paper's "per thousand instructions"
    metric. *)
val per_kilo : t -> num:string -> den:string -> float

(** [merge ~into src] adds every counter of [src] into [into]. *)
val merge : into:t -> t -> unit

(** [copy t] is an independent snapshot. *)
val copy : t -> t

(** [diff t ~baseline] is a new table holding [t - baseline] per counter
    (counters absent from [baseline] count from zero). *)
val diff : t -> baseline:t -> t

(** [to_assoc t] is every counter as [(name, value)], sorted by name —
    the one-call accessor for exporters (no [names]+[get] pairing). *)
val to_assoc : t -> (string * int) list

(** [restore ~into snapshot] overwrites [into] in place with the values
    of [snapshot] (a table from {!copy}); counters created after the
    snapshot drop back to zero.  The table identity is preserved, so
    components holding the [t] see the rewound values. *)
val restore : into:t -> t -> unit

(** Aligned two-column dump; the name column is sized to the longest
    counter name. *)
val pp : Format.formatter -> t -> unit
