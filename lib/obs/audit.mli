(** Leakage auditor: align two cycle-stamped event streams and localize
    where — and through which hardware channel — they first diverge.

    The MI6 non-interference claim (paper Section 5.4) is that a
    victim's cycle-stamped view of the shared memory system is
    bit-identical whatever a co-resident attacker does.  {!diff} takes
    the victim's event stream under two attacker behaviours and produces
    a {!report}: the overall first-divergence point plus a verdict for
    every {!Channel.traced} channel (LLC arbiter, MSHR file, UQ/DQ
    queues, DRAM command bus, cache fills, page walks, purges), so a
    failing configuration names the leaking structure rather than just
    "traces differ". *)

(** A first point of disagreement between two aligned streams.
    [d_index] is the position in the compared (sub)stream; the cycle and
    label are [None]/["<end-of-stream>"] on the side that ran out of
    events first. *)
type divergence = {
  d_index : int;
  d_cycle_a : int option;
  d_cycle_b : int option;
  d_label_a : string;
  d_label_b : string;
}

(** The label standing in for the side that ran out of events. *)
val eos : string

type channel_verdict = {
  v_channel : Channel.t;
  v_events_a : int;
  v_events_b : int;
  v_first : divergence option;
}

type report = {
  r_label_a : string;
  r_label_b : string;
  r_events_a : int;
  r_events_b : int;
  r_first : divergence option;  (** across the full interleaved stream *)
  r_channels : channel_verdict list;
}

(** [diff a b] — compare two event streams (oldest first, as returned by
    {!Trace.events}).  Two events agree when both their cycle stamps and
    their {!Trace.event_label} renderings are equal. *)
val diff :
  ?label_a:string ->
  ?label_b:string ->
  (int * Trace.event) list ->
  (int * Trace.event) list ->
  report

(** A report is clean when the full streams are bit-identical. *)
val clean : report -> bool

(** Channels that diverged, earliest first (by the cycle stamp of their
    first divergence). *)
val leaking_channels : report -> Channel.t list

(** The earliest-diverging channel, i.e. where the leak enters. *)
val first_leaking_channel : report -> Channel.t option

(** The earliest victim-visible cycle at which the streams disagree
    (also exported as [first_divergence_cycle] in the report JSON) —
    the coordinate [mi6_sim bisect] refines down to a component and a
    field-level state diff. *)
val first_divergence_cycle : report -> int option

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> Json.t
