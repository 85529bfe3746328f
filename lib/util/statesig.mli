(** Structural-state folds for the quiet-cycle detector.

    Each stateful component declares the state that can change from one
    cycle to the next (queues, MSHRs, state-machine phases, scheduled-event
    times) {e once}, as a [fold_state : sink -> t -> unit] that feeds every
    value to a {!sink}.  Two views derive from that one fold:

    - {!signature} hashes the values into an int.  The machine folds every
      component once per cycle; equal signatures across consecutive cycles
      classify the cycle as {e quiet}: nothing but the clock advanced, so
      an event-driven core could have skipped it.
    - {!dump} renders the same values as labelled text
      ([label=v,v seq=[x;y] opt=-]), the byte-compare oracle for the
      detector and the field diff of a bisect report.

    The hash is order-dependent and deterministic (no randomized hashing),
    so signatures are comparable across runs and across domains.
    Sequences and options fold their length first, so the two views agree:
    a fold whose shape depends only on its values (labels constant per
    position) gives equal signatures exactly when it gives equal dumps,
    up to hash collisions. *)

(** A fold target: hashes or renders, depending on how it was made. *)
type sink

(** [signature fold] runs [fold] on a hashing sink and returns the
    hash. *)
val signature : (sink -> unit) -> int

(** [dump fold] runs [fold] on a rendering sink and returns the text. *)
val dump : (sink -> unit) -> string

val int : sink -> int -> unit
val bool : sink -> bool -> unit

(** [field s label] labels the values that follow in the dump; hashing
    ignores it. *)
val field : sink -> string -> unit

(** Length-prefixed sequences: the length, then [f] on every element in
    order.  The dump brackets the sequence and separates elements with
    [;]. *)
val list : sink -> (sink -> 'a -> unit) -> 'a list -> unit

val array : sink -> (sink -> 'a -> unit) -> 'a array -> unit

(** [init s n f] folds a length-[n] sequence whose element [k] is folded
    by [f s k] — exactly what [list s g (List.init n h)] folds when
    [g s (h k)] is [f s k].  Flat structures (rings, parallel arrays)
    fold through it without building the list. *)
val init : sink -> int -> (sink -> int -> unit) -> unit

(** [ints s a ~pos ~len] folds the ints [a.(pos) .. a.(pos + len - 1)]
    exactly as [list s int] folds them, without a closure per call. *)
val ints : sink -> int array -> pos:int -> len:int -> unit

val fifo : sink -> (sink -> 'a -> unit) -> 'a Fifo.t -> unit

(** [opt s f o] — a presence bit, then [f] on the value; the dump shows
    [None] as [-]. *)
val opt : sink -> (sink -> 'a -> unit) -> 'a option -> unit

(** [present s b] — {!opt}'s presence bit alone: [present s false] folds
    what [opt s f None] folds, and [present s true] followed by the
    value's fold is [opt s f (Some v)].  For slots whose emptiness is a
    sentinel rather than an option. *)
val present : sink -> bool -> unit
