open Channel

(* [compare] orders constant constructors by declaration order. *)
let norm l = List.sort_uniq compare l

(* Everything a memory access's timing travels through on its way to
   DRAM.  Which of these actually separates two secrets depends on the
   configuration ({!closes}); statically they are all candidates. *)
let mem_side = [ Arbiter; Mshr; Uq_dq; Dram; Cache ]

let shift_of bytes =
  let rec go s n = if n <= 1 then s else go (s + 1) (n / 2) in
  go 0 bytes

let line_shift = shift_of Addr.line_bytes

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
  (* An access spread over lines shifts core-internal timing even within
     one page, and shifted timing moves a later page walk. *)
  let lines = multi_unit f line_shift in
  let walk = if lines then [ Walk ] else [] in
  let base =
    match f.Taint.kind with
    | Taint.Load_address | Taint.Store_address ->
      (if lines then mem_side else []) @ walk
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

(* Closure is read off the lint findings, so the knob-to-channel map
   lives in one place ({!Lint}).  The walker's traffic is ordinary cached
   memory traffic, isolated exactly when the set index and the DRAM path
   are; flush-on-trap resets the predictors along with the rest of the
   purged state (Section 6). *)
let rec closes ~(lint : Lint.finding list) ch =
  match ch with
  | Walk -> closes ~lint Cache && closes ~lint Dram
  | Btb | Rsb -> closes ~lint Purge
  | _ -> not (List.exists (fun f -> f.Lint.channel = Some ch) lint)

let open_channels ~timing ~lint (f : Taint.finding) =
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
  else List.filter (fun ch -> not (closes ~lint ch)) (infer ~timing f)
