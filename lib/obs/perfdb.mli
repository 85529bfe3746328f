(** Cross-run performance history: an append-only JSONL database of
    bench results plus the regression comparator behind
    [bench/compare.exe].

    Every benchmark-harness invocation appends one {!record} per
    (variant, bench) pair, all sharing a fresh [run_id]; {!compare_runs}
    diffs two runs under configurable thresholds so CI can fail on a
    cycle-count or IPC regression.  Records carry the CPI stack and key
    histogram quantiles so a regression can be attributed, not just
    detected. *)

type record = {
  run_id : string;  (** shared by every record of one harness invocation *)
  commit : string;  (** git HEAD at the time of the run, or ["unknown"] *)
  variant : string;
  bench : string;
  cycles : int;
  instrs : int;
  ipc : float;
  cpi : (string * int) list;  (** CPI-stack category -> cycles *)
  quantiles : (string * (int * int * int)) list;
      (** histogram name -> (p50, p95, p99) *)
}

val record_to_json : record -> Json.t

(** [record_of_json j] — [Error msg] when a required field is missing or
    ill-typed.  Unknown fields are ignored, so lines written before host
    speed moved to perfbench, which carry a [host] object, still load. *)
val record_of_json : Json.t -> (record, string) result

(** [append ~path records] appends one compact JSON line per record
    (creating the file if needed). *)
val append : path:string -> record list -> unit

(** [load ~path] — all records, file order.  Blank lines are skipped;
    an unparseable line raises [Failure] with its line number.  A
    missing file is an empty history. *)
val load : path:string -> record list

(** Run ids in first-appearance order. *)
val run_ids : record list -> string list

(** Records belonging to one run, file order. *)
val run : record list -> run_id:string -> record list

(** [latest_two records] — [(previous, latest)] when the history holds
    at least two distinct run ids. *)
val latest_two : record list -> (record list * record list) option

(** [next_run_id records ~commit] — a fresh sequential id,
    ["NNNN-commit"]. *)
val next_run_id : record list -> commit:string -> string

(** One threshold violation found by {!compare_runs}. *)
type regression = {
  r_variant : string;
  r_bench : string;
  r_metric : string;  (** ["cycles"] or ["ipc"] *)
  r_old : float;
  r_new : float;
  r_delta_pct : float;  (** signed; positive = more cycles / less IPC *)
}

(** [compare_runs ~old_run ~new_run] — threshold violations over the
    (variant, bench) pairs present in both runs.  [max_cycle_regress_pct]
    (default 5.0) bounds the cycle-count increase; [max_ipc_drop_pct]
    (default 5.0) bounds the IPC decrease.  Both compare simulated
    quantities, so identical reruns never differ; host speed is measured
    by perfbench. *)
val compare_runs :
  ?max_cycle_regress_pct:float ->
  ?max_ipc_drop_pct:float ->
  old_run:record list ->
  new_run:record list ->
  unit ->
  regression list

val pp_regression : Format.formatter -> regression -> unit

(** Current git commit hash read straight from [root]/.git (default
    ["."]) without shelling out; ["unknown"] when unreadable. *)
val git_commit : ?root:string -> unit -> string
