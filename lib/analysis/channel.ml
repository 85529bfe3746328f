type t = Arbiter | Mshr | Uq_dq | Dram | Cache | Walk | Purge | Btb | Rsb

let all = [ Arbiter; Mshr; Uq_dq; Dram; Cache; Walk; Purge; Btb; Rsb ]

let to_audit = function
  | Arbiter -> Some Audit.Arbiter
  | Mshr -> Some Audit.Mshr
  | Uq_dq -> Some Audit.Uq_dq
  | Dram -> Some Audit.Dram
  | Cache -> Some Audit.Cache
  | Walk -> Some Audit.Walk
  | Purge -> Some Audit.Purge
  | Btb | Rsb -> None

let name ch =
  match ch with
  | Btb -> "btb"
  | Rsb -> "rsb"
  | _ -> Audit.channel_name (Option.get (to_audit ch))

let of_name s = List.find_opt (fun ch -> name ch = s) all

(* [compare] orders constant constructors by declaration: {!all} order. *)
let norm l = List.sort_uniq compare l

(* Everything a memory access's timing travels through on its way to
   DRAM.  Which of these actually separates two secrets depends on the
   configuration ({!closes}); statically they are all candidates. *)
let mem_side = [ Arbiter; Mshr; Uq_dq; Dram; Cache ]

let shift_of bytes =
  let rec go s n = if n <= 1 then s else go (s + 1) (n / 2) in
  go 0 bytes

let line_shift = shift_of Addr.line_bytes
let page_shift = shift_of Addr.page_bytes

(* Can the finding's address set reach >= 2 units of [shift] granularity?
   No target set (branch/div findings) or an unbounded one counts as
   multi: the access pattern is not confined. *)
let multi_unit (f : Taint.finding) shift =
  match f.Taint.target with
  | None -> true
  | Some v -> (
    match Vset.unit_count v ~width:(max 1 f.Taint.width) ~shift with
    | None -> true
    | Some n -> n >= 2)

let is_ret (i : Instr.t) =
  match i with
  | Instr.Jalr { rd; rs1; _ } -> rd = Reg.x0 && rs1 = Reg.ra
  | _ -> false

let infer ~(timing : Config.timing) (f : Taint.finding) =
  let walk = if multi_unit f page_shift then [ Walk ] else [] in
  let base =
    match f.Taint.kind with
    | Taint.Load_address | Taint.Store_address ->
      (if multi_unit f line_shift then mem_side else []) @ walk
    | Taint.Shared_write | Taint.Shared_read ->
      (* A shared-region access contends with the other enclave's own
         accesses even at a single public line. *)
      mem_side @ walk
    | Taint.Branch_condition | Taint.Variable_latency ->
      (* Divergent execution reshapes the whole downstream access
         stream; on a flushing core the purge points shift too. *)
      mem_side @ [ Walk ]
      @ (if timing.Config.core.Core_config.flush_on_trap then [ Purge ] else [])
    | Taint.Jump_target ->
      let front = if f.Taint.rsb || is_ret f.Taint.instr then Rsb else Btb in
      (front :: mem_side) @ [ Walk ]
  in
  norm (if f.Taint.rsb then Rsb :: base else base)

let closes ~(timing : Config.timing) ch =
  let sec = timing.Config.llc_security in
  let llc = timing.Config.llc in
  let core = timing.Config.core in
  let cache_closed () =
    (* Probe the index function: two lines with equal flat index in
       different DRAM regions land in different sets iff the index is
       region-partitioned (Section 7.2). *)
    let lines_per_region =
      Addr.region_base Addr.default_regions 1 / Addr.line_bytes
    in
    Index.index llc.Llc.index ~line:0
    <> Index.index llc.Llc.index ~line:lines_per_region
  in
  let dram_closed () = 2 * llc.Llc.mshrs <= timing.Config.dram_outstanding in
  match ch with
  | Cache -> cache_closed ()
  | Mshr -> sec.Llc.partitioned_mshrs
  | Arbiter -> sec.Llc.round_robin_arbiter
  | Uq_dq -> sec.Llc.split_uq && sec.Llc.dq_retry
  | Dram -> dram_closed ()
  | Walk ->
    (* Walker traffic is ordinary cached memory traffic; it is isolated
       exactly when the set index and the DRAM path are. *)
    cache_closed () && dram_closed ()
  | Purge | Btb | Rsb ->
    (* Flush-on-trap resets predictors and timing state at every domain
       crossing (Section 6). *)
    core.Core_config.flush_on_trap

let open_channels ~timing (f : Taint.finding) =
  let mem_kind =
    match f.Taint.kind with
    | Taint.Load_address | Taint.Store_address | Taint.Shared_read
    | Taint.Shared_write ->
      true
    | _ -> false
  in
  if
    f.Taint.speculative && mem_kind
    && timing.Config.core.Core_config.nonspec_mem
  then
    (* NONSPEC renames memory only at an empty ROB: a wrong-path memory
       access never issues, so the transient transmitter is gone. *)
    []
  else List.filter (fun ch -> not (closes ~timing ch)) (infer ~timing f)

let of_lint_check = function
  | "llc-mshr-sharing" | "mshr-partitioning" | "mshr-banking" -> Some Mshr
  | "llc-arbiter" -> Some Arbiter
  | "llc-shared-uq" | "llc-dq-port" | "llc-shared-downgrade" -> Some Uq_dq
  | "mshr-vs-dram" -> Some Dram
  | "llc-partition" -> Some Cache
  | "purge-on-trap" | "purge-floor" -> Some Purge
  | "monitor-region" | "region-coverage" | "region-overlap"
  | "region-mask-width" | "shared-monitor-region" | "shared-owner" ->
    (* Ownership/ledger violations expose cross-domain DRAM placement. *)
    Some Dram
  | _ -> None

let to_json chs = Json.List (List.map (fun ch -> Json.String (name ch)) chs)
