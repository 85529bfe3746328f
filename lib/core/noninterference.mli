(** Side-channel experiments and the non-interference property.

    Each experiment runs an attacker agent on core 0 and a victim agent on
    core 1 of a two-core memory hierarchy, with disjoint DRAM regions
    (architectural isolation holds by construction — the question is
    exactly the paper's: does the {e timing} the attacker observes depend
    on the victim?).  The attacker's observation is the list of latencies
    of its own timed accesses.  A configuration provides strong timing
    independence for an experiment when the observation is bit-identical
    across victim behaviours.

    Experiments map to the paper's channels:
    - {!prime_probe}: LLC set contention (Section 5.2 — closed by set
      partitioning);
    - {!mshr_channel}: LLC MSHR occupancy and the shared pipeline/queue
      contention (Sections 5.2/5.4 — closed by MSHR partitioning, the
      round-robin arbiter, split UQs, and one-cycle DQ dequeues);
    - {!dram_bank_channel}: DRAM bank-locality reordering (Section 5.2 —
      closed by the constant-latency controller). *)

type llc_setup = {
  security : Llc.security;
  index : Index.t;
  mshrs : int;
  mshr_banks : int;
  strict_bank_stall : bool;
}

(** Insecure RiscyOO LLC: flat index, shared 16-entry MSHRs, Figure 2
    structures. *)
val baseline_setup : llc_setup

(** MI6 LLC: region-partitioned index, partitioned MSHRs, Figure 3
    structures. *)
val mi6_setup : llc_setup

(** [prime_probe setup ~secret] — attacker primes an LLC set with its own
    lines, the victim touches a line whose set depends on [secret], the
    attacker probes and records each probe latency. *)
val prime_probe : llc_setup -> secret:bool -> int list

(** [mshr_channel setup ~victim_floods] — the victim either floods the LLC
    with misses or stays idle while the attacker times a sequence of its
    own misses. *)
val mshr_channel : llc_setup -> victim_floods:bool -> int list

(** [dram_bank_channel ~reordering ~victim_same_bank] — run on the MI6 LLC
    with either the FR-FCFS or the constant-latency DRAM controller; the
    victim hammers either the attacker's DRAM bank or a different one. *)
val dram_bank_channel : reordering:bool -> victim_same_bank:bool -> int list

(** Attacker behaviours for the timeline experiments: idle, a saturating
    miss flood, alternating 256-cycle bursts, and a small-working-set
    sweep that mostly hits in the LLC. *)
type attacker = A_idle | A_flood | A_burst | A_sweep

val all_attackers : attacker list
val attacker_name : attacker -> string
val attacker_of_name : string -> attacker option

(** [victim_llc_events setup ~attacker] — the victim runs a fixed access
    script while the attacker runs [attacker]; returns the victim's
    cycle-stamped event stream (its LLC arbiter grants, MSHR alloc/free,
    UQ sends, DQ retries, and DRAM commands for its own lines), plus the
    trace ring's dropped-event count (nonzero drops invalidate a
    stream-equality audit).  Feed two streams to {!Mi6_obs.Audit.diff}:
    non-interference demands they be bit-identical across attackers. *)
val victim_llc_events :
  llc_setup -> attacker:attacker -> (int * Mi6_obs.Trace.event) list * int

(** [leaks observations] — true when any two observations differ (the
    attacker can distinguish victim behaviours). *)
val leaks : int list list -> bool

(** One capture of the leakage-audit grid: a named LLC setup paired with
    an attacker behaviour. *)
type audit_cell = {
  cell_setup_name : string;
  cell_setup : llc_setup;
  cell_attacker : attacker;
}

(** The audit's canonical setups, in report order:
    [("baseline", baseline_setup); ("mi6", mi6_setup)]. *)
val audit_setups : (string * llc_setup) list

(** [audit_grid ~attackers ()] — the canonical cell enumeration the audit
    fans out over: every setup (default {!audit_setups}, given order)
    crossed with the idle reference followed by the requested behaviours
    ({!all_attackers} order, duplicates and explicit idle dropped).  Each
    cell's capture is self-contained, so the grid may be run on any
    number of domains; results indexed by cell reproduce the serial
    report exactly. *)
val audit_grid :
  ?setups:(string * llc_setup) list -> attackers:attacker list -> unit ->
  audit_cell list

(** ["setup/attacker"], e.g. ["mi6/flood"]. *)
val audit_cell_name : audit_cell -> string

(** [run_audit_cell c] — {!victim_llc_events} for the cell, plus the
    trace ring's dominant dropped event kind (as
    [Some (kind, count)]) so a nonzero-drop warning can say {e what}
    was lost, not just how much. *)
val run_audit_cell :
  audit_cell ->
  (int * Mi6_obs.Trace.event) list * int * (string * int) option
