(** Static secret-taint / constant-time analysis over decoded RV64IM
    programs (paper Section 2 threat model; Citadel's follow-up
    constant-time discipline).

    A forward abstract interpretation on the {!Dataflow} framework.  Each
    register carries a taint bit plus a {!Vset} value set — the two are
    independent, so a secret-{e dependent} address can still be
    statically {e bounded} ([base + (secret & 0xF8)] is tainted and
    confined to an interval), which is what lets {!Leak_infer} resolve a
    finding to concrete cache sets and DRAM regions.  Memory is tracked
    byte-precise for statically known addresses, with a sound
    conservative blur for stores through unknown pointers.  Exact
    arithmetic delegates to {!Mi6_func.Fsim}'s RV64 semantics, so the
    domain cannot drift from the reference model.

    The analysis flags the constant-time violations the MI6/Citadel
    threat model cares about:

    - a conditional branch whose condition reads tainted data;
    - a load/store/AMO whose {e address} reads tainted data (cache and
      DRAM side channels; secret {e values} may flow to memory freely);
    - a variable-latency operation ([div]/[divu]/[rem]/[remu] and their
      W-forms) with a tainted operand;
    - a [jalr] whose target register is tainted;
    - with declared read-shared regions ([?shared]): {e any} store into a
      shared region ([Shared_write]), and any secret-indexed load from
      one ([Shared_read]) — the cross-enclave transmitters Citadel's
      relaxed ownership admits.

    {b Speculative mode} ([window > 0]): conditional branches whose
    direction is statically known (both operand value sets singleton)
    normally propagate facts only along the live direction; with a
    speculation window, the architecturally dead edge is also followed
    for up to [window] wrong-path instructions, modeling Spectre-style
    transient execution.  Stores are weakened to never scrub a byte's
    taint (speculative store bypass, Spectre-v4).  A [ret] executed at
    modeled call depth 0 has {e underflowed} the return-stack buffer:
    the front end falls back to a stale, attacker-trainable prediction,
    so the wrong path may continue anywhere in the image — findings
    reached that way carry [rsb = true].  Findings reachable only
    through some wrong path are labeled [speculative]. *)

type kind =
  | Branch_condition
  | Jump_target
  | Load_address
  | Store_address
  | Variable_latency
  | Shared_write  (** store into a declared read-shared region *)
  | Shared_read  (** secret-indexed load from a declared read-shared region *)

val kind_name : kind -> string

type finding = {
  pc : int;
  kind : kind;
  speculative : bool;  (** only reachable through wrong-path execution *)
  rsb : bool;  (** reached over an RSB-underflow wrong path *)
  target : Vset.t option;
      (** address value set for memory findings, target set for [jalr] *)
  width : int;  (** access bytes for memory findings; [0] otherwise *)
  instr : Instr.t;
  detail : string;
}

(** The secret set: registers tainted at program entry, and byte ranges
    [\[lo, hi)] of physical memory holding secrets. *)
type secret = { regs : Reg.t list; ranges : (int * int) list }

val no_secret : secret

(** Total order on [(pc, kind, speculative)] — the report order. *)
val compare_finding : finding -> finding -> int

(** [analyze ?window ?shared ~secret cfg] — findings sorted by
    [(pc, kind, speculative)].  [window = 0] (default) analyzes committed
    execution only; [shared] lists declared read-shared byte ranges
    [\[lo, hi)]. *)
val analyze :
  ?window:int -> ?shared:(int * int) list -> secret:secret -> Cfg.t ->
  finding list

(** [analyze_program ?window ?shared ~secret p] — decode + CFG + analyze.
    [Error] when the image does not decode. *)
val analyze_program :
  ?window:int -> ?shared:(int * int) list -> secret:secret -> Asm.program ->
  (finding list, string) result

val pp_finding : Format.formatter -> finding -> unit
val finding_to_json : finding -> Json.t
