type security = {
  partitioned_mshrs : bool;
  round_robin_arbiter : bool;
  split_uq : bool;
  per_partition_downgrade : bool;
  dq_retry : bool;
}

let baseline_security =
  {
    partitioned_mshrs = false;
    round_robin_arbiter = false;
    split_uq = false;
    per_partition_downgrade = false;
    dq_retry = false;
  }

let mi6_security =
  {
    partitioned_mshrs = true;
    round_robin_arbiter = true;
    split_uq = true;
    per_partition_downgrade = true;
    dq_retry = true;
  }

type config = {
  index : Index.t;
  ways : int;
  mshrs : int;
  mshr_banks : int;
  strict_bank_stall : bool;
  pipeline_latency : int;
  cores : int;
  repl_seed : int;
}

let default_config ~cores =
  {
    index = Index.flat ~set_bits:10;
    ways = 16;
    mshrs = 16;
    mshr_banks = 1;
    strict_bank_stall = false;
    pipeline_latency = 4;
    cores;
    repl_seed = 0x22;
  }

type line_meta = {
  mutable dirty : bool;
  mutable owner : int option;
  sharers : Bitvec.t;
}

type dq_kind = Dq_read | Dq_wb

type phase =
  | P_pipe  (** traversing the cache-access pipeline *)
  | P_blocked  (** same-line / same-way conflict; parked on another MSHR *)
  | P_wait_retry  (** queued for pipeline re-entry *)
  | P_wait_downgrade of { victim : bool }
  | P_in_dq
  | P_wait_dram
  | P_dram_arrived  (** response buffered in the MSHR, awaiting pipeline *)
  | P_wait_uq

type entry = {
  e_core : int;
  e_line : int;
  e_to : Msi.t;
  mutable e_phase : phase;
  mutable e_set : int;
  mutable e_way : int; (* -1 until reserved *)
  mutable e_locks_way : bool;
  mutable e_needs_wb : bool;
  mutable e_wb_line : int;
  mutable e_retry : bool; (* MI6 retry bit (Figure 3) *)
  mutable e_pending : Bitvec.t; (* cores still to answer a downgrade *)
  mutable e_to_send : (int * int * Msi.t) list; (* core, line, to_s *)
  mutable e_blocked : int list; (* MSHR idxs parked on this entry *)
  mutable e_dq_kind : dq_kind;
}

type pipe_msg =
  | M_creq of int
  | M_retry of int
  | M_cresp of int * Msg.child_resp
  | M_dram of int

(* Counter handles, bound once at [create]. *)
type counters = {
  k_requests : Stats.counter;
  k_hits : Stats.counter;
  k_misses : Stats.counter;
  k_replacements : Stats.counter;
  k_writebacks : Stats.counter;
  k_all_ways_locked : Stats.counter;
  k_mshr_alloc_stalls : Stats.counter;
  k_arb_idle_slots : Stats.counter;
  k_downgrades_sent : Stats.counter;
  k_responses_sent : Stats.counter;
  k_uq_hol_blocks : Stats.counter;
  k_dram_backpressure_stalls : Stats.counter;
  k_dq_retries : Stats.counter;
  k_dq_double_dequeues : Stats.counter;
}

let counters stats =
  let c = Stats.counter stats in
  {
    k_requests = c "llc.requests";
    k_hits = c "llc.hits";
    k_misses = c "llc.misses";
    k_replacements = c "llc.replacements";
    k_writebacks = c "llc.writebacks";
    k_all_ways_locked = c "llc.all_ways_locked";
    k_mshr_alloc_stalls = c "llc.mshr_alloc_stalls";
    k_arb_idle_slots = c "llc.arb_idle_slots";
    k_downgrades_sent = c "llc.downgrades_sent";
    k_responses_sent = c "llc.responses_sent";
    k_uq_hol_blocks = c "llc.uq_hol_blocks";
    k_dram_backpressure_stalls = c "llc.dram_backpressure_stalls";
    k_dq_retries = c "llc.dq_retries";
    k_dq_double_dequeues = c "llc.dq_double_dequeues";
  }

type t = {
  cfg : config;
  sec : security;
  links : Link.t array;
  dram : Controller.t;
  ctr : counters;
  respond : tag:int -> line:int -> unit; (* DRAM completion, built once *)
  array : line_meta Sram.t;
  repl : Replacement.t;
  entries : entry option array;
  pipe : (int * pipe_msg) Fifo.t; (* exit cycle, message *)
  retryq : int Fifo.t array; (* per core *)
  uqs : int Fifo.t array; (* 1 (shared) or per core *)
  dq : int Fifo.t;
  mutable dq_pending_read : int option; (* baseline 2-cycle wb+read dequeue *)
  port_used : bool array; (* per-core outgoing port, per cycle *)
  (* Observability *)
  trace : Trace.t;
  selfprof : Selfprof.t;
  mutable tnow : int; (* current cycle, for probes deep in the pipeline *)
  mutable live : int; (* allocated MSHR entries (avoids a per-tick scan) *)
  occ_hist : Histogram.t; (* MSHR occupancy, sampled once per tick *)
}

let entry t idx =
  match t.entries.(idx) with
  | Some e -> e
  | None -> failwith "Llc: dangling MSHR index"

(* The DRAM controller's completion callback. *)
let dram_response t ~tag ~line =
  let e = entry t tag in
  assert (e.e_line = line);
  (* No backpressure on the DRAM response: buffered in the MSHR. *)
  e.e_phase <- P_dram_arrived

let create ?(trace = Trace.null) ?(selfprof = Selfprof.null) cfg ~security
    ~links ~dram ~stats =
  if Array.length links <> cfg.cores then
    invalid_arg "Llc.create: one link per core required";
  if cfg.mshrs mod cfg.mshr_banks <> 0 then
    invalid_arg "Llc.create: mshrs must divide evenly into banks";
  if security.partitioned_mshrs && cfg.mshrs mod cfg.cores <> 0 then
    invalid_arg "Llc.create: mshrs must divide evenly across cores";
  let sets = Index.sets cfg.index in
  let ctr = counters stats in
  let array = Sram.create ~sets ~ways:cfg.ways in
  let repl =
    Replacement.pseudo_random ~ways:cfg.ways ~sets ~seed:cfg.repl_seed
  in
  let entries = Array.make cfg.mshrs None in
  let pipe = Fifo.create ~capacity:(cfg.pipeline_latency + 2) in
  let retryq = Array.init cfg.cores (fun _ -> Fifo.create ~capacity:cfg.mshrs) in
  let uqs =
    if security.split_uq then
      Array.init cfg.cores (fun _ ->
          Fifo.create ~capacity:(cfg.mshrs / cfg.cores))
    else [| Fifo.create ~capacity:cfg.mshrs |]
  in
  let dq = Fifo.create ~capacity:cfg.mshrs in
  let port_used = Array.make cfg.cores false in
  let occ_hist = Histogram.create () in
  let rec t =
    {
      cfg;
      sec = security;
      links;
      dram;
      ctr;
      respond = (fun ~tag ~line -> dram_response t ~tag ~line);
      array;
      repl;
      entries;
      pipe;
      retryq;
      uqs;
      dq;
      dq_pending_read = None;
      port_used;
      trace;
      selfprof;
      tnow = 0;
      live = 0;
      occ_hist;
    }
  in
  t

let mshr_occupancy t = t.occ_hist
let live_mshrs t = t.live

let set_of t line = Index.index t.cfg.index ~line

(* ------------------------------------------------------------------ *)
(* MSHR allocation                                                     *)
(* ------------------------------------------------------------------ *)

let per_core_mshrs t = t.cfg.mshrs / t.cfg.cores

(* The MSHR index range [lo, hi) that [core] may allocate from. *)
let range_lo t core = if t.sec.partitioned_mshrs then core * per_core_mshrs t else 0

let range_hi t core =
  if t.sec.partitioned_mshrs then (core + 1) * per_core_mshrs t else t.cfg.mshrs

let bank_of_set t set = set land (t.cfg.mshr_banks - 1)

let is_free t i = match t.entries.(i) with None -> true | Some _ -> false

let free_in_bank t core bank =
  let n = ref 0 in
  for i = range_lo t core to range_hi t core - 1 do
    if is_free t i && i mod t.cfg.mshr_banks = bank then incr n
  done;
  !n

let free_mshrs_for t ~core ~line =
  let bank = bank_of_set t (set_of t line) in
  if t.cfg.strict_bank_stall then begin
    (* Pessimistic model: any full bank blocks everything. *)
    let all_ok = ref true in
    for b = 0 to t.cfg.mshr_banks - 1 do
      if free_in_bank t core b = 0 then all_ok := false
    done;
    if !all_ok then free_in_bank t core bank else 0
  end
  else free_in_bank t core bank

(* Lowest free index in [i, hi) of [bank], or -1. *)
let rec free_slot t ~bank ~hi i =
  if i >= hi then -1
  else if is_free t i && i mod t.cfg.mshr_banks = bank then i
  else free_slot t ~bank ~hi (i + 1)

(* The allocated MSHR index, or -1 when the core's bank is full. *)
let alloc_mshr t ~core ~line ~to_s =
  if free_mshrs_for t ~core ~line = 0 then -1
  else begin
    let bank = bank_of_set t (set_of t line) in
    let i = free_slot t ~bank ~hi:(range_hi t core) (range_lo t core) in
    if i >= 0 then begin
      t.entries.(i) <-
        Some
          {
            e_core = core;
            e_line = line;
            e_to = to_s;
            e_phase = P_pipe;
            e_set = -1;
            e_way = -1;
            e_locks_way = false;
            e_needs_wb = false;
            e_wb_line = -1;
            e_retry = false;
            e_pending = Bitvec.create t.cfg.cores;
            e_to_send = [];
            e_blocked = [];
            e_dq_kind = Dq_read;
          };
      t.live <- t.live + 1;
      if Trace.active t.trace Trace.Llc then
        Trace.emit t.trace ~now:t.tnow
          (Trace.Mshr_alloc { core; idx = i; line })
    end;
    i
  end

(* The highest-indexed MSHR locking [set]/[way], or -1. *)
let way_locker t set way =
  let found = ref (-1) in
  let i = ref (t.cfg.mshrs - 1) in
  while !found < 0 && !i >= 0 do
    (match t.entries.(!i) with
    | Some e when e.e_locks_way && e.e_set = set && e.e_way = way ->
      found := !i
    | _ -> ());
    decr i
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Queue helpers                                                       *)
(* ------------------------------------------------------------------ *)

let uq_for t core = if t.sec.split_uq then t.uqs.(core) else t.uqs.(0)

let enqueue_uq t idx =
  let e = entry t idx in
  e.e_phase <- P_wait_uq;
  Fifo.enq (uq_for t e.e_core) idx

let enqueue_retry t idx =
  let e = entry t idx in
  e.e_phase <- P_wait_retry;
  Fifo.enq t.retryq.(e.e_core) idx

let park_on t ~blocker ~parked =
  let b = entry t blocker in
  let p = entry t parked in
  p.e_phase <- P_blocked;
  b.e_blocked <- parked :: b.e_blocked

let free_entry t idx =
  let e = entry t idx in
  List.iter (fun w -> enqueue_retry t w) e.e_blocked;
  if Trace.active t.trace Trace.Llc then
    Trace.emit t.trace ~now:t.tnow
      (Trace.Mshr_free { core = e.e_core; idx });
  t.entries.(idx) <- None;
  t.live <- t.live - 1

(* ------------------------------------------------------------------ *)
(* Directory / replacement bookkeeping                                 *)
(* ------------------------------------------------------------------ *)

let fresh_meta t = { dirty = false; owner = None; sharers = Bitvec.create t.cfg.cores }

(* Targets that must be downgraded before granting [to_s] to [core]. *)
let downgrade_targets t meta ~core ~to_s ~line =
  ignore t;
  match to_s with
  | Msi.M ->
    let acc = ref [] in
    Bitvec.iter_set
      (fun c -> if c <> core then acc := (c, line, Msi.I) :: !acc)
      meta.sharers;
    (match meta.owner with
    | Some c when c <> core -> acc := (c, line, Msi.I) :: !acc
    | _ -> ());
    List.rev !acc
  | Msi.S -> (
    match meta.owner with
    | Some c when c <> core -> [ (c, line, Msi.S) ]
    | _ -> [])
  | Msi.I -> []

let apply_cresp_to_directory t core (resp : Msg.child_resp) =
  let set = set_of t resp.Msg.line in
  match Sram.find_way t.array ~set ~tag:resp.Msg.line with
  | -1 -> ()
  | way -> (
    let meta = Sram.meta t.array ~set ~way in
    if resp.Msg.dirty then meta.dirty <- true;
    match resp.Msg.to_s with
    | Msi.I ->
      if meta.owner = Some core then meta.owner <- None;
      if Bitvec.get meta.sharers core then Bitvec.clear meta.sharers core
    | Msi.S ->
      if meta.owner = Some core then meta.owner <- None;
      Bitvec.set meta.sharers core
    | Msi.M -> ())

(* Replacement completed: victim gone, line slot reserved for the miss. *)
let complete_replacement t idx ~victim_dirty =
  let e = entry t idx in
  Sram.invalidate t.array ~set:e.e_set ~way:e.e_way;
  e.e_needs_wb <- victim_dirty;
  e.e_dq_kind <- (if victim_dirty then Dq_wb else Dq_read);
  if victim_dirty then Stats.bump t.ctr.k_writebacks;
  e.e_phase <- P_in_dq;
  Fifo.enq t.dq idx

(* ------------------------------------------------------------------ *)
(* Pipeline-exit processing                                            *)
(* ------------------------------------------------------------------ *)

(* The first active MSHR other than [idx] on [line], or -1.  Parked
   (P_blocked) entries are passive and must not themselves act as
   blockers, or two same-line entries could park on each other. *)
let rec same_line_blocker t ~idx ~line i =
  if i >= t.cfg.mshrs then -1
  else
    match t.entries.(i) with
    | Some { e_phase = P_blocked; _ } -> same_line_blocker t ~idx ~line (i + 1)
    | Some o when i <> idx && o.e_line = line -> i
    | _ -> same_line_blocker t ~idx ~line (i + 1)

let unlocked t set way = way_locker t set way < 0

(* An invalid, unlocked way of [set] from [w] up, or -1. *)
let rec invalid_unlocked_way t set w =
  if w >= t.cfg.ways then -1
  else if (not (Sram.is_valid t.array ~set ~way:w)) && unlocked t set w then w
  else invalid_unlocked_way t set (w + 1)

(* The first unlocked way scanning round from [w], or -1. *)
let rec unlocked_victim t set ~tries w =
  if tries >= t.cfg.ways then -1
  else if unlocked t set w then w
  else unlocked_victim t set ~tries:(tries + 1) ((w + 1) mod t.cfg.ways)

let await_downgrades e targets ~victim =
  e.e_locks_way <- true;
  List.iter (fun (c, _, _) -> Bitvec.set e.e_pending c) targets;
  e.e_to_send <- targets;
  e.e_phase <- P_wait_downgrade { victim }

let process_hit t idx e ~set ~way meta =
  let blocker = way_locker t set way in
  if blocker >= 0 && blocker <> idx then park_on t ~blocker ~parked:idx
  else begin
    Stats.bump t.ctr.k_hits;
    e.e_way <- way;
    Replacement.touch t.repl ~set ~way;
    match
      downgrade_targets t meta ~core:e.e_core ~to_s:e.e_to ~line:e.e_line
    with
    | [] -> enqueue_uq t idx
    | targets -> await_downgrades e targets ~victim:false
  end

let process_miss t idx e ~set =
  Stats.bump t.ctr.k_misses;
  (* Find an invalid, unlocked way; otherwise pick a victim among
     unlocked ways. *)
  let way = invalid_unlocked_way t set 0 in
  if way >= 0 then begin
    e.e_way <- way;
    e.e_locks_way <- true;
    e.e_dq_kind <- Dq_read;
    e.e_phase <- P_in_dq;
    Fifo.enq t.dq idx
  end
  else begin
    let pick = Replacement.victim t.repl ~set ~invalid_way:None in
    let way = unlocked_victim t set ~tries:0 pick in
    if way < 0 then begin
      (* Every way locked by an in-flight transaction: retry. *)
      Stats.bump t.ctr.k_all_ways_locked;
      enqueue_retry t idx
    end
    else
      match Sram.read t.array ~set ~way with
      | None -> assert false
      | Some (victim_tag, vmeta) -> (
        Stats.bump t.ctr.k_replacements;
        e.e_way <- way;
        e.e_locks_way <- true;
        e.e_wb_line <- victim_tag;
        match
          downgrade_targets t vmeta ~core:(-1) ~to_s:Msi.M ~line:victim_tag
        with
        | [] -> complete_replacement t idx ~victim_dirty:vmeta.dirty
        | targets ->
          e.e_needs_wb <- vmeta.dirty;
          await_downgrades e targets ~victim:true)
  end

let process_request t idx =
  let e = entry t idx in
  if e.e_retry then begin
    (* MI6 retry pass: the writeback already went out; this is now a pure
       miss that re-enters DQ for the DRAM read (Figure 3). *)
    e.e_retry <- false;
    e.e_dq_kind <- Dq_read;
    e.e_phase <- P_in_dq;
    Fifo.enq t.dq idx
  end
  else begin
    let set = set_of t e.e_line in
    e.e_set <- set;
    let blocker = same_line_blocker t ~idx ~line:e.e_line 0 in
    if blocker >= 0 then park_on t ~blocker ~parked:idx
    else
      match Sram.find_way t.array ~set ~tag:e.e_line with
      | -1 -> process_miss t idx e ~set
      | way -> process_hit t idx e ~set ~way (Sram.meta t.array ~set ~way)
  end

(* Hand a downgrade response to the MSHR waiting on it, if any: the first
   in index order whose pending set still holds [core] for that line. *)
let rec claim_cresp t core (resp : Msg.child_resp) idx =
  if idx >= t.cfg.mshrs then false
  else
    match t.entries.(idx) with
    | Some ({ e_phase = P_wait_downgrade { victim }; _ } as e)
      when (if victim then e.e_wb_line else e.e_line) = resp.Msg.line
           && Bitvec.get e.e_pending core ->
      Bitvec.clear e.e_pending core;
      apply_cresp_to_directory t core resp;
      if Bitvec.is_empty e.e_pending then begin
        if victim then begin
          let vdirty =
            e.e_needs_wb
            ||
            match Sram.find_way t.array ~set:e.e_set ~tag:e.e_wb_line with
            | -1 -> false
            | way -> (Sram.meta t.array ~set:e.e_set ~way).dirty
          in
          complete_replacement t idx ~victim_dirty:vdirty
        end
        else enqueue_uq t idx
      end;
      true
    | _ -> claim_cresp t core resp (idx + 1)

let process_cresp t core (resp : Msg.child_resp) =
  (* A waiting MSHR consumes the response first (so it can account the
     dirty bit into the replacement), then the directory is updated. *)
  if not (claim_cresp t core resp 0) then apply_cresp_to_directory t core resp

let process_dram t idx =
  let e = entry t idx in
  Sram.fill t.array ~set:e.e_set ~way:e.e_way ~tag:e.e_line (fresh_meta t);
  Replacement.touch t.repl ~set:e.e_set ~way:e.e_way;
  enqueue_uq t idx

let process_exit t = function
  | M_creq idx | M_retry idx -> process_request t idx
  | M_cresp (core, resp) -> process_cresp t core resp
  | M_dram idx -> process_dram t idx

(* ------------------------------------------------------------------ *)
(* Pipeline entry arbitration                                          *)
(* ------------------------------------------------------------------ *)

(* The lowest-indexed MSHR of [core] holding a DRAM response, or -1. *)
let dram_arrived_for t core =
  if t.live = 0 then -1
  else begin
    let found = ref (-1) in
    let i = ref 0 in
    while !found < 0 && !i < t.cfg.mshrs do
      (match t.entries.(!i) with
      | Some { e_phase = P_dram_arrived; e_core; _ } when e_core = core ->
        found := !i
      | _ -> ());
      incr i
    done;
    !found
  end

let msg_kind = function
  | M_creq _ -> "req"
  | M_retry _ -> "retry"
  | M_cresp _ -> "resp"
  | M_dram _ -> "dram"

let msg_core t = function
  | M_creq idx | M_retry idx | M_dram idx -> (entry t idx).e_core
  | M_cresp (c, _) -> c

let admit t ~now msg =
  if Trace.active t.trace Trace.Llc then
    Trace.emit t.trace ~now
      (Trace.Arb_grant { core = msg_core t msg; kind = msg_kind msg });
  Fifo.enq t.pipe (now + t.cfg.pipeline_latency, msg)

(* Each [admit_*] admits [core]'s message of one type into the pipeline
   if it has one, and says whether it did. *)

let admit_dram t ~now core =
  let idx = dram_arrived_for t core in
  idx >= 0
  && begin
    (entry t idx).e_phase <- P_pipe;
    admit t ~now (M_dram idx);
    true
  end

let admit_retry t ~now core =
  Fifo.can_deq t.retryq.(core)
  && begin
    let idx = Fifo.deq t.retryq.(core) in
    (entry t idx).e_phase <- P_pipe;
    admit t ~now (M_retry idx);
    true
  end

let admit_cresp t ~now core =
  Fifo.can_deq t.links.(core).Link.rs
  && begin
    admit t ~now (M_cresp (core, Fifo.deq t.links.(core).Link.rs));
    true
  end

(* An upgrade request also needs an MSHR. *)
let admit_creq t ~now core =
  match Fifo.peek_opt t.links.(core).Link.rq with
  | None -> false
  | Some req ->
    let idx = alloc_mshr t ~core ~line:req.Msg.line ~to_s:req.Msg.to_s in
    if idx >= 0 then begin
      ignore (Fifo.deq t.links.(core).Link.rq);
      Stats.bump t.ctr.k_requests;
      admit t ~now (M_creq idx);
      true
    end
    else begin
      Stats.bump t.ctr.k_mshr_alloc_stalls;
      false
    end

(* Baseline two-level mux: message-type priority (DRAM responses,
   downgrade responses, retries, upgrade requests), then core index. *)
let rec baseline_mux t ~now cls core =
  if core >= t.cfg.cores then begin
    if cls < 3 then baseline_mux t ~now (cls + 1) 0
  end
  else if
    not
      (match cls with
      | 0 -> admit_dram t ~now core
      | 1 -> admit_cresp t ~now core
      | 2 -> admit_retry t ~now core
      | _ -> admit_creq t ~now core)
  then baseline_mux t ~now cls (core + 1)

let enter_pipeline t ~now =
  if t.sec.round_robin_arbiter then begin
    (* Cycle T admits only core T mod N, taking its highest-priority
       message; an idle slot is wasted (Section 5.4.3). *)
    let core = now mod t.cfg.cores in
    if
      not
        (admit_dram t ~now core
        || admit_retry t ~now core
        || admit_cresp t ~now core
        || admit_creq t ~now core)
    then begin
      Stats.bump t.ctr.k_arb_idle_slots;
      if Trace.active t.trace Trace.Llc then
        Trace.emit t.trace ~now (Trace.Arb_idle { core })
    end
  end
  else baseline_mux t ~now 0 0

let advance_pipeline t ~now =
  match Fifo.peek_opt t.pipe with
  | Some (exit_at, msg) when exit_at <= now ->
    ignore (Fifo.deq t.pipe);
    process_exit t msg
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Downgrade-L1 logic                                                  *)
(* ------------------------------------------------------------------ *)

(* Send one pending downgrade request from the entries in [lo, hi). *)
let downgrade_scan t ~lo ~hi =
  let sent = ref false in
  let i = ref lo in
  while (not !sent) && !i < hi do
    (match t.entries.(!i) with
    | Some e -> (
      match e.e_to_send with
      | (target, line, to_s) :: rest ->
        if
          (not t.port_used.(target))
          && Fifo.can_enq t.links.(target).Link.p2c
        then begin
          Fifo.enq t.links.(target).Link.p2c (Msg.Downgrade_req { line; to_s });
          Stats.bump t.ctr.k_downgrades_sent;
          t.port_used.(target) <- true;
          e.e_to_send <- rest;
          sent := true
        end
      | [] -> ())
    | None -> ());
    incr i
  done

let downgrade_logic t =
  if t.sec.per_partition_downgrade then
    for core = 0 to t.cfg.cores - 1 do
      downgrade_scan t ~lo:(range_lo t core) ~hi:(range_hi t core)
    done
  else downgrade_scan t ~lo:0 ~hi:t.cfg.mshrs

(* ------------------------------------------------------------------ *)
(* UQ dequeue                                                          *)
(* ------------------------------------------------------------------ *)

let grant_directory t idx =
  let e = entry t idx in
  match Sram.read t.array ~set:e.e_set ~way:e.e_way with
  | None -> assert false
  | Some (_, meta) -> (
    match e.e_to with
    | Msi.M ->
      meta.owner <- Some e.e_core;
      Bitvec.clear meta.sharers e.e_core
    | Msi.S -> Bitvec.set meta.sharers e.e_core
    | Msi.I -> ())

let try_send_response t idx =
  let e = entry t idx in
  let c = e.e_core in
  if (not t.port_used.(c)) && Fifo.can_enq t.links.(c).Link.p2c then begin
    grant_directory t idx;
    Fifo.enq t.links.(c).Link.p2c
      (Msg.Upgrade_resp { line = e.e_line; to_s = e.e_to });
    Stats.bump t.ctr.k_responses_sent;
    if Trace.active t.trace Trace.Llc then
      Trace.emit t.trace ~now:t.tnow
        (Trace.Uq_send { core = c; line = e.e_line });
    t.port_used.(c) <- true;
    e.e_locks_way <- false;
    free_entry t idx;
    true
  end
  else false

let uq_dequeue t =
  if t.sec.split_uq then
    for i = 0 to Array.length t.uqs - 1 do
      let uq = t.uqs.(i) in
      match Fifo.peek_opt uq with
      | Some idx -> if try_send_response t idx then ignore (Fifo.deq uq)
      | None -> ()
    done
  else
    match Fifo.peek_opt t.uqs.(0) with
    | Some idx ->
      if try_send_response t idx then ignore (Fifo.deq t.uqs.(0))
      else Stats.bump t.ctr.k_uq_hol_blocks
    | None -> ()

(* ------------------------------------------------------------------ *)
(* DQ dequeue                                                          *)
(* ------------------------------------------------------------------ *)

let dq_dequeue t ~now =
  match t.dq_pending_read with
  | Some idx ->
    (* Baseline second dequeue cycle: the port is still busy sending the
       DRAM read of a writeback+read pair (the Section 5.4.2 leak). *)
    if Controller.can_accept t.dram then begin
      let e = entry t idx in
      Controller.accept t.dram ~now
        { Controller.read = true; line = e.e_line; tag = idx };
      e.e_phase <- P_wait_dram;
      t.dq_pending_read <- None
    end
    else Stats.bump t.ctr.k_dram_backpressure_stalls
  | None -> (
    match Fifo.peek_opt t.dq with
    | None -> ()
    | Some idx -> (
      let e = entry t idx in
      match e.e_dq_kind with
      | Dq_read ->
        if Controller.can_accept t.dram then begin
          ignore (Fifo.deq t.dq);
          Controller.accept t.dram ~now
            { Controller.read = true; line = e.e_line; tag = idx };
          e.e_phase <- P_wait_dram
        end
        else Stats.bump t.ctr.k_dram_backpressure_stalls
      | Dq_wb ->
        if Controller.can_accept t.dram then begin
          ignore (Fifo.deq t.dq);
          Controller.accept t.dram ~now
            { Controller.read = false; line = e.e_wb_line; tag = idx };
          if t.sec.dq_retry then begin
            (* One-cycle dequeue: set the retry bit and re-enter the
               pipeline as a pure miss (Figure 3). *)
            e.e_retry <- true;
            Stats.bump t.ctr.k_dq_retries;
            if Trace.active t.trace Trace.Llc then
              Trace.emit t.trace ~now
                (Trace.Dq_retry { core = e.e_core; idx });
            enqueue_retry t idx
          end
          else begin
            (* Baseline: block the DQ port next cycle for the read. *)
            t.dq_pending_read <- Some idx;
            Stats.bump t.ctr.k_dq_double_dequeues
          end
        end
        else Stats.bump t.ctr.k_dram_backpressure_stalls))

(* ------------------------------------------------------------------ *)
(* Tick                                                                *)
(* ------------------------------------------------------------------ *)

let tick t ~now =
  t.tnow <- now;
  Histogram.add t.occ_hist t.live;
  Array.fill t.port_used 0 (Array.length t.port_used) false;
  downgrade_logic t;
  uq_dequeue t;
  advance_pipeline t ~now;
  enter_pipeline t ~now;
  dq_dequeue t ~now;
  let p = Selfprof.switch t.selfprof Selfprof.ph_dram in
  Controller.tick t.dram ~now ~respond:t.respond;
  Selfprof.restore t.selfprof p

let busy t =
  Array.exists (fun e -> e <> None) t.entries
  || Fifo.length t.pipe > 0
  || Controller.outstanding t.dram > 0
  || Array.exists (fun l -> Fifo.length l.Link.rq > 0 || Fifo.length l.Link.rs > 0) t.links

let probe t ~line =
  Sram.find_way t.array ~set:(set_of t line) ~tag:line >= 0

let occupancy t = Sram.count_valid t.array

let check_invariants t =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* A parked entry must be on the wake-up list of an active one, or no
     [free_entry] ever re-queues it. *)
  let rec parked_on i j =
    j < t.cfg.mshrs
    && ((match t.entries.(j) with
        | Some { e_phase = P_blocked; _ } | None -> false
        | Some b -> List.mem i b.e_blocked)
       || parked_on i (j + 1))
  in
  let occupied = ref 0 in
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some e ->
        incr occupied;
        if i < range_lo t e.e_core || i >= range_hi t e.e_core then
          fail "MSHR %d holds a core-%d entry outside that core's range" i
            e.e_core;
        (match e.e_phase with
        | P_blocked when not (parked_on i 0) ->
          fail "MSHR %d is parked but no active entry will wake it" i
        | _ -> ()))
    t.entries;
  if !occupied <> t.live then
    fail "live count %d, but %d MSHRs are occupied" t.live !occupied;
  Sram.iter_valid
    (fun set way tag meta ->
      match meta.owner with
      | Some c when Bitvec.get meta.sharers c ->
        fail "line %#x (set %d, way %d): owner core %d is also a sharer" tag
          set way c
      | _ -> ())
    t.array;
  match List.rev !problems with [] -> Ok () | first :: _ -> Error first

let invalidate_region t ~geometry ~region =
  if busy t then failwith "Llc.invalidate_region: LLC not quiescent";
  let to_drop = ref [] in
  Sram.iter_valid
    (fun set way tag meta ->
      if Addr.region_of geometry (tag * Addr.line_bytes) = region then begin
        (* The monitor descheduled and purged the domain's cores first, so
           no L1 may still hold the line. *)
        if meta.owner <> None || not (Bitvec.is_empty meta.sharers) then
          failwith "Llc.invalidate_region: line still shared by an L1";
        to_drop := (set, way) :: !to_drop
      end)
    t.array;
  List.iter (fun (set, way) -> Sram.invalidate t.array ~set ~way) !to_drop

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything behavior-relevant, including what fold_state
   excludes: the tag array with its mutable directory metadata, the
   replacement state, and the occupancy histogram.  The child links are
   captured here because the LLC owns the links array (the L1s share the
   same Link.t values).  [port_used] is per-cycle scratch refilled at the
   top of every tick and needs no capture. *)

let copy_meta m = { m with sharers = Bitvec.copy m.sharers }
let copy_entry e = { e with e_pending = Bitvec.copy e.e_pending }

type link_ck = {
  lk_rq : Msg.child_req list;
  lk_rs : Msg.child_resp list;
  lk_p2c : Msg.parent_msg list;
}

type checkpoint = {
  ck_array : line_meta Sram.checkpoint;
  ck_repl : Replacement.checkpoint;
  ck_entries : entry option array;
  ck_pipe : (int * pipe_msg) list;
  ck_retryq : int list array;
  ck_uqs : int list array;
  ck_dq : int list;
  ck_dq_pending_read : int option;
  ck_links : link_ck array;
  ck_dram : Controller.checkpoint;
  ck_tnow : int;
  ck_live : int;
  ck_occ_hist : Histogram.t;
}

let save t =
  {
    ck_array = Sram.save ~copy:copy_meta t.array;
    ck_repl = Replacement.save t.repl;
    ck_entries = Array.map (Option.map copy_entry) t.entries;
    ck_pipe = Fifo.to_list t.pipe;
    ck_retryq = Array.map Fifo.to_list t.retryq;
    ck_uqs = Array.map Fifo.to_list t.uqs;
    ck_dq = Fifo.to_list t.dq;
    ck_dq_pending_read = t.dq_pending_read;
    ck_links =
      Array.map
        (fun l ->
          {
            lk_rq = Fifo.to_list l.Link.rq;
            lk_rs = Fifo.to_list l.Link.rs;
            lk_p2c = Fifo.to_list l.Link.p2c;
          })
        t.links;
    ck_dram = Controller.save t.dram;
    ck_tnow = t.tnow;
    ck_live = t.live;
    ck_occ_hist = Histogram.copy t.occ_hist;
  }

let restore t ck =
  Sram.restore ~copy:copy_meta t.array ck.ck_array;
  Replacement.restore t.repl ck.ck_repl;
  Array.iteri (fun i e -> t.entries.(i) <- Option.map copy_entry e) ck.ck_entries;
  Fifo.assign t.pipe ck.ck_pipe;
  Array.iteri (fun i xs -> Fifo.assign t.retryq.(i) xs) ck.ck_retryq;
  Array.iteri (fun i xs -> Fifo.assign t.uqs.(i) xs) ck.ck_uqs;
  Fifo.assign t.dq ck.ck_dq;
  t.dq_pending_read <- ck.ck_dq_pending_read;
  Array.iteri
    (fun i lk ->
      Fifo.assign t.links.(i).Link.rq lk.lk_rq;
      Fifo.assign t.links.(i).Link.rs lk.lk_rs;
      Fifo.assign t.links.(i).Link.p2c lk.lk_p2c)
    ck.ck_links;
  Controller.restore t.dram ck.ck_dram;
  t.tnow <- ck.ck_tnow;
  t.live <- ck.ck_live;
  Histogram.restore ~into:t.occ_hist ck.ck_occ_hist

(* ------------------------------------------------------------------ *)
(* Structure state (quiet-cycle detector)                              *)
(* ------------------------------------------------------------------ *)

(* MSHRs, every queue (pipeline, retry, UQ, DQ), the child links, and
   the DRAM controller.  The cache array, directory metadata, and
   replacement state are excluded: they only change in cycles that also
   move an MSHR or a queue.  [port_used] is per-cycle scratch recomputed
   from scratch each tick and is likewise excluded. *)

let phase_code = function
  | P_pipe -> 0
  | P_blocked -> 1
  | P_wait_retry -> 2
  | P_wait_downgrade { victim } -> if victim then 4 else 3
  | P_in_dq -> 5
  | P_wait_dram -> 6
  | P_dram_arrived -> 7
  | P_wait_uq -> 8

(* Messages and bit vectors enter the fold by their polymorphic hash.
   Top-level, so the per-cycle fold does not allocate it. *)
let hash s x = Statesig.int s (Hashtbl.hash x)

let fold_state s t =
  let open Statesig in
  field s "live"; int s t.live;
  field s "entries";
  array s
    (fun s e ->
      opt s
        (fun s e ->
          field s "ph"; int s (phase_code e.e_phase);
          field s "c"; int s e.e_core;
          field s "l"; int s e.e_line;
          field s "to"; int s (Msi.rank e.e_to);
          field s "s"; int s e.e_set;
          field s "w"; int s e.e_way;
          field s "lk"; bool s e.e_locks_way;
          field s "wb"; bool s e.e_needs_wb; int s e.e_wb_line;
          field s "r"; bool s e.e_retry;
          field s "p"; hash s e.e_pending;
          field s "ts"; list s hash e.e_to_send;
          field s "blk"; list s int e.e_blocked;
          field s "dq"; int s (match e.e_dq_kind with Dq_read -> 0 | Dq_wb -> 1))
        e)
    t.entries;
  field s "pipe";
  fifo s
    (fun s (exit_at, msg) ->
      int s exit_at;
      hash s msg)
    t.pipe;
  field s "retryq"; array s (fun s q -> fifo s int q) t.retryq;
  field s "uqs"; array s (fun s q -> fifo s int q) t.uqs;
  field s "dq"; fifo s int t.dq;
  field s "dqp"; opt s int t.dq_pending_read;
  field s "links";
  array s
    (fun s l ->
      field s "rq"; fifo s hash l.Link.rq;
      field s "rs"; fifo s hash l.Link.rs;
      field s "p2c"; fifo s hash l.Link.p2c)
    t.links;
  field s "dram"; Controller.fold_state s t.dram
