(** Value-set abstract domain for 64-bit values (addresses, mostly).

    The taint analyzer ({!Taint}) layers this under its taint bit so a
    secret-{e dependent} address can still be statically {e bounded}: a
    classic Spectre gadget computes [base + (secret & 0xF8)], whose value
    set is the interval [\[base, base+0xF8\]] even though the value is
    tainted.  {!Leak_infer} then resolves such a set to the cache lines, LLC
    sets, pages, and DRAM regions the access can touch — the difference
    between "this load leaks" and "this load leaks {e through these
    structures}".

    Four layers, coarsening as they grow:

    - [Bot] — no value (unreachable);
    - a small finite set (at most {!max_card} members, kept sorted);
    - a signed interval [\[lo, hi\]];
    - [Top] — any 64-bit value.

    Arithmetic on small finite sets is exact (pairwise application of the
    concrete operation, which for RV64 ALU ops is supplied by the caller
    so the domain cannot drift from the reference semantics); interval
    transfer functions are sound over-approximations with overflow
    collapsing to [Top].

    {b Widening}: the dataflow join must terminate on loops that bump an
    address every iteration.  {!widen} grows finite sets at most
    {!max_card} times, then snaps growing interval bounds outward to a
    fixed threshold ladder — every ascending chain through {!widen} is
    finite (the property test iterates this to a fixpoint). *)

type t

val max_card : int
(** Finite-set cardinality cap (32); beyond it a set becomes an
    interval hull. *)

val bot : t
val top : t
val const : int64 -> t

(** [of_list vs] — the finite set of [vs] (hulled if over {!max_card});
    [bot] when empty. *)
val of_list : int64 list -> t

val is_bot : t -> bool
val equal : t -> t -> bool

(** [to_const v] — [Some c] iff [v] is the singleton [c]. *)
val to_const : t -> int64 option

(** [mem c v] — may [v] take the concrete value [c]? *)
val mem : int64 -> t -> bool

(** [range v] — signed bounds [(lo, hi)]; [None] for [Bot] and [Top]. *)
val range : t -> (int64 * int64) option

val join : t -> t -> t

(** [widen old next] — an upper bound of [join old next] on which every
    ascending chain stabilizes: finite sets grow at most {!max_card}
    steps, then growing interval bounds snap outward along a fixed
    threshold ladder. *)
val widen : t -> t -> t

(** Exact wrap-around arithmetic on small finite sets, sound interval
    arithmetic otherwise (overflow collapses to [Top]). *)
val add : t -> t -> t

val sub : t -> t -> t

(** [band a b] — bitwise and.  Pairwise-exact on small sets; otherwise,
    if either operand is known non-negative with upper bound [m], the
    result lies in [\[0, m\]]. *)
val band : t -> t -> t

(** [bor]/[bxor] — pairwise-exact on small sets; when both operands are
    known non-negative the result is bounded by the next power of two
    above both. *)
val bor : t -> t -> t

val bxor : t -> t -> t

(** [apply2 f a b] — pairwise application of a concrete operation over
    two small finite sets ([Top] when either side is unbounded or the
    product is large).  The caller supplies the exact RV64 semantics. *)
val apply2 : (int64 -> int64 -> int64) -> t -> t -> t

(** {2 Resolution against address geometry}

    An access touches bytes [\[a, a+width)] for every [a] in the set.
    A {e unit} is [byte >> shift]: shift 6 gives cache lines, shift 12
    pages, and a region shift gives DRAM regions. *)

(** [unit_count v ~width ~shift] — number of distinct units the access
    can touch; [None] when unbounded ([Top]). *)
val unit_count : t -> width:int -> shift:int -> int option

(** [unit_list v ~width ~shift ~max] — the distinct units, ascending,
    when there are at most [max] of them. *)
val unit_list : t -> width:int -> shift:int -> max:int -> int list option

(** [may_intersect v ~lo ~hi ~width] — can any accessed byte fall in
    [\[lo, hi)]?  [Top] intersects everything. *)
val may_intersect : t -> lo:int64 -> hi:int64 -> width:int -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit
