(** The hardware channels of the MI6 isolation argument — the one
    vocabulary the dynamic {!Audit}, the bisector, the noninterference
    harnesses and the static channel inference all speak.

    The paper argues isolation one channel at a time: the LLC set index,
    MSHRs, arbiter and UQ/DQ queues and the DRAM controller (Sections
    5.2–5.4), and the purge at domain crossings (Section 6).  Each
    constructor names one of those structures; two subsets say which
    side can observe it. *)

type t =
  | Arbiter  (** LLC input arbitration slot *)
  | Mshr  (** LLC miss-status registers *)
  | Uq_dq  (** LLC upgrade/DRAM queues *)
  | Dram  (** DRAM controller scheduling *)
  | Cache  (** LLC set index (evictions) *)
  | Walk  (** page-table walker traffic *)
  | Purge  (** purge timing *)
  | Sample
      (** periodic occupancy counters: diagnostics, not attacker-visible
          timing *)
  | Btb  (** branch target buffer (front end) *)
  | Rsb  (** return stack buffer (front end) *)

(** The channels a trace event can carry ({!of_event}'s range), in
    declaration order: everything but the per-core predictors, which
    leave no shared-memory traffic to trace. *)
val traced : t list

(** The channels static inference can name, in declaration order:
    everything but [Sample]. *)
val inferable : t list

(** ["llc-arbiter"], ["llc-mshr"], ["llc-uq-dq"], ["dram-cmd"],
    ["cache-fill"], ["page-walk"], ["purge"], ["sample"], ["btb"],
    ["rsb"]. *)
val name : t -> string

val of_name : string -> t option

(** The channel an event travels on. *)
val of_event : Trace.event -> t

(** JSON array of channel names. *)
val to_json : t list -> Json.t
