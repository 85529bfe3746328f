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

type t = {
  cfg : config;
  sec : security;
  links : Link.t array;
  dram : Controller.t;
  stats : Stats.t;
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

let create ?(trace = Trace.null) ?(selfprof = Selfprof.null) cfg ~security
    ~links ~dram ~stats =
  if Array.length links <> cfg.cores then
    invalid_arg "Llc.create: one link per core required";
  if cfg.mshrs mod cfg.mshr_banks <> 0 then
    invalid_arg "Llc.create: mshrs must divide evenly into banks";
  if security.partitioned_mshrs && cfg.mshrs mod cfg.cores <> 0 then
    invalid_arg "Llc.create: mshrs must divide evenly across cores";
  let sets = Index.sets cfg.index in
  {
    cfg;
    sec = security;
    links;
    dram;
    stats;
    array = Sram.create ~sets ~ways:cfg.ways;
    repl =
      Replacement.pseudo_random ~ways:cfg.ways ~sets ~seed:cfg.repl_seed;
    entries = Array.make cfg.mshrs None;
    pipe = Fifo.create ~capacity:(cfg.pipeline_latency + 2);
    retryq = Array.init cfg.cores (fun _ -> Fifo.create ~capacity:cfg.mshrs);
    uqs =
      (if security.split_uq then
         Array.init cfg.cores (fun _ ->
             Fifo.create ~capacity:(cfg.mshrs / cfg.cores))
       else [| Fifo.create ~capacity:cfg.mshrs |]);
    dq = Fifo.create ~capacity:cfg.mshrs;
    dq_pending_read = None;
    port_used = Array.make cfg.cores false;
    trace;
    selfprof;
    tnow = 0;
    live = 0;
    occ_hist = Histogram.create ();
  }

let mshr_occupancy t = t.occ_hist
let live_mshrs t = t.live

let entry t idx =
  match t.entries.(idx) with
  | Some e -> e
  | None -> failwith "Llc: dangling MSHR index"

let set_of t line = Index.index t.cfg.index ~line

(* ------------------------------------------------------------------ *)
(* MSHR allocation                                                     *)
(* ------------------------------------------------------------------ *)

let per_core_mshrs t = t.cfg.mshrs / t.cfg.cores

let entry_range t core =
  if t.sec.partitioned_mshrs then
    (core * per_core_mshrs t, (core + 1) * per_core_mshrs t)
  else (0, t.cfg.mshrs)

let bank_of_set t set = set land (t.cfg.mshr_banks - 1)

let free_in_bank t core bank =
  let lo, hi = entry_range t core in
  let n = ref 0 in
  for i = lo to hi - 1 do
    if t.entries.(i) = None && i mod t.cfg.mshr_banks = bank then incr n
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

let alloc_mshr t ~core ~line ~to_s =
  if free_mshrs_for t ~core ~line = 0 then None
  else begin
    let bank = bank_of_set t (set_of t line) in
    let lo, hi = entry_range t core in
    let rec go i =
      if i >= hi then None
      else if t.entries.(i) = None && i mod t.cfg.mshr_banks = bank then begin
        let e =
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
          }
        in
        t.entries.(i) <- Some e;
        t.live <- t.live + 1;
        if Trace.active t.trace Trace.Llc then
          Trace.emit t.trace ~now:t.tnow
            (Trace.Mshr_alloc { core; idx = i; line });
        Some i
      end
      else go (i + 1)
    in
    go lo
  end

let way_locker t set way =
  let found = ref None in
  Array.iteri
    (fun i eo ->
      match eo with
      | Some e when e.e_locks_way && e.e_set = set && e.e_way = way ->
        found := Some i
      | _ -> ())
    t.entries;
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
  match Sram.find t.array ~set ~tag:resp.Msg.line with
  | None -> ()
  | Some (_, meta) -> (
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
  if victim_dirty then Stats.incr t.stats "llc.writebacks";
  e.e_phase <- P_in_dq;
  Fifo.enq t.dq idx

(* ------------------------------------------------------------------ *)
(* Pipeline-exit processing                                            *)
(* ------------------------------------------------------------------ *)

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
    (* Same-line conflict with another active transaction: park.  Parked
       (P_blocked) entries are passive and must not themselves act as
       blockers, or two same-line entries could park on each other. *)
    let same_line = ref None in
    Array.iteri
      (fun i eo ->
        match eo with
        | Some o
          when i <> idx && o.e_line = e.e_line && o.e_phase <> P_blocked
               && !same_line = None ->
          same_line := Some i
        | _ -> ())
      t.entries;
    match !same_line with
    | Some blocker -> park_on t ~blocker ~parked:idx
    | None -> (
      match Sram.find t.array ~set ~tag:e.e_line with
      | Some (way, meta) -> (
        match way_locker t set way with
        | Some blocker when blocker <> idx -> park_on t ~blocker ~parked:idx
        | _ -> (
          Stats.incr t.stats "llc.hits";
          e.e_way <- way;
          Replacement.touch t.repl ~set ~way;
          match
            downgrade_targets t meta ~core:e.e_core ~to_s:e.e_to
              ~line:e.e_line
          with
          | [] -> enqueue_uq t idx
          | targets ->
            e.e_locks_way <- true;
            List.iter (fun (c, _, _) -> Bitvec.set e.e_pending c) targets;
            e.e_to_send <- targets;
            e.e_phase <- P_wait_downgrade { victim = false }))
      | None -> (
        Stats.incr t.stats "llc.misses";
        (* Find an invalid, unlocked way; otherwise pick a victim among
           unlocked ways. *)
        let unlocked w = way_locker t set w = None in
        let rec find_invalid w =
          if w >= t.cfg.ways then None
          else if Sram.read t.array ~set ~way:w = None && unlocked w then
            Some w
          else find_invalid (w + 1)
        in
        match find_invalid 0 with
        | Some way ->
          e.e_way <- way;
          e.e_locks_way <- true;
          e.e_dq_kind <- Dq_read;
          e.e_phase <- P_in_dq;
          Fifo.enq t.dq idx
        | None -> (
          let pick = Replacement.victim t.repl ~set ~invalid_way:None in
          let rec find_victim tries w =
            if tries >= t.cfg.ways then None
            else if unlocked w then Some w
            else find_victim (tries + 1) ((w + 1) mod t.cfg.ways)
          in
          match find_victim 0 pick with
          | None ->
            (* Every way locked by an in-flight transaction: retry. *)
            Stats.incr t.stats "llc.all_ways_locked";
            enqueue_retry t idx
          | Some way -> (
            match Sram.read t.array ~set ~way with
            | None -> assert false
            | Some (victim_tag, vmeta) -> (
              Stats.incr t.stats "llc.replacements";
              e.e_way <- way;
              e.e_locks_way <- true;
              e.e_wb_line <- victim_tag;
              match
                downgrade_targets t vmeta ~core:(-1) ~to_s:Msi.M
                  ~line:victim_tag
              with
              | [] -> complete_replacement t idx ~victim_dirty:vmeta.dirty
              | targets ->
                e.e_needs_wb <- vmeta.dirty;
                List.iter
                  (fun (c, _, _) -> Bitvec.set e.e_pending c)
                  targets;
                e.e_to_send <- targets;
                e.e_phase <- P_wait_downgrade { victim = true })))))
  end

let process_cresp t core (resp : Msg.child_resp) =
  (* A waiting MSHR consumes the response first (so it can account the
     dirty bit into the replacement), then the directory is updated. *)
  let claimed = ref false in
  Array.iteri
    (fun idx eo ->
      match eo with
      | Some e when not !claimed -> (
        match e.e_phase with
        | P_wait_downgrade { victim } ->
          let wanted_line = if victim then e.e_wb_line else e.e_line in
          if wanted_line = resp.Msg.line && Bitvec.get e.e_pending core then begin
            claimed := true;
            Bitvec.clear e.e_pending core;
            apply_cresp_to_directory t core resp;
            if Bitvec.is_empty e.e_pending then begin
              if victim then begin
                let vdirty =
                  e.e_needs_wb
                  ||
                  match Sram.find t.array ~set:e.e_set ~tag:e.e_wb_line with
                  | Some (_, m) -> m.dirty
                  | None -> false
                in
                complete_replacement t idx ~victim_dirty:vdirty
              end
              else enqueue_uq t idx
            end
          end
        | _ -> ())
      | _ -> ())
    t.entries;
  if not !claimed then apply_cresp_to_directory t core resp

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

let dram_arrived_for t core =
  let found = ref None in
  Array.iteri
    (fun i eo ->
      match eo with
      | Some e when e.e_phase = P_dram_arrived && e.e_core = core && !found = None
        ->
        found := Some i
      | _ -> ())
    t.entries;
  !found

(* Highest-priority available message for [core]; dequeues it. *)
let take_core_candidate t core =
  match dram_arrived_for t core with
  | Some idx ->
    (entry t idx).e_phase <- P_pipe;
    Some (M_dram idx)
  | None ->
    if Fifo.can_deq t.retryq.(core) then begin
      let idx = Fifo.deq t.retryq.(core) in
      (entry t idx).e_phase <- P_pipe;
      Some (M_retry idx)
    end
    else if Fifo.can_deq t.links.(core).Link.rs then
      Some (M_cresp (core, Fifo.deq t.links.(core).Link.rs))
    else
      match Fifo.peek_opt t.links.(core).Link.rq with
      | None -> None
      | Some req -> (
        match
          alloc_mshr t ~core ~line:req.Msg.line ~to_s:req.Msg.to_s
        with
        | Some idx ->
          ignore (Fifo.deq t.links.(core).Link.rq);
          Stats.incr t.stats "llc.requests";
          Some (M_creq idx)
        | None ->
          Stats.incr t.stats "llc.mshr_alloc_stalls";
          None)

let msg_kind = function
  | M_creq _ -> "req"
  | M_retry _ -> "retry"
  | M_cresp _ -> "resp"
  | M_dram _ -> "dram"

let msg_core t = function
  | M_creq idx | M_retry idx | M_dram idx -> (entry t idx).e_core
  | M_cresp (c, _) -> c

let enter_pipeline t ~now =
  let admit msg =
    if Trace.active t.trace Trace.Llc then
      Trace.emit t.trace ~now
        (Trace.Arb_grant { core = msg_core t msg; kind = msg_kind msg });
    Fifo.enq t.pipe (now + t.cfg.pipeline_latency, msg)
  in
  if t.sec.round_robin_arbiter then begin
    (* Cycle T admits only core T mod N; an idle slot is wasted
       (Section 5.4.3). *)
    let core = now mod t.cfg.cores in
    match take_core_candidate t core with
    | Some msg -> admit msg
    | None ->
      Stats.incr t.stats "llc.arb_idle_slots";
      if Trace.active t.trace Trace.Llc then
        Trace.emit t.trace ~now (Trace.Arb_idle { core })
  end
  else begin
    (* Baseline two-level mux: message-type priority, then core index. *)
    let picked = ref false in
    let try_class f =
      if not !picked then begin
        let rec go c =
          if c < t.cfg.cores then
            match f c with
            | Some msg ->
              picked := true;
              admit msg
            | None -> go (c + 1)
        in
        go 0
      end
    in
    (* DRAM responses. *)
    try_class (fun c ->
        match dram_arrived_for t c with
        | Some idx ->
          (entry t idx).e_phase <- P_pipe;
          Some (M_dram idx)
        | None -> None);
    (* Downgrade responses. *)
    try_class (fun c ->
        if Fifo.can_deq t.links.(c).Link.rs then
          Some (M_cresp (c, Fifo.deq t.links.(c).Link.rs))
        else None);
    (* Retries. *)
    try_class (fun c ->
        if Fifo.can_deq t.retryq.(c) then begin
          let idx = Fifo.deq t.retryq.(c) in
          (entry t idx).e_phase <- P_pipe;
          Some (M_retry idx)
        end
        else None);
    (* Upgrade requests (need an MSHR). *)
    try_class (fun c ->
        match Fifo.peek_opt t.links.(c).Link.rq with
        | None -> None
        | Some req -> (
          match alloc_mshr t ~core:c ~line:req.Msg.line ~to_s:req.Msg.to_s with
          | Some idx ->
            ignore (Fifo.deq t.links.(c).Link.rq);
            Stats.incr t.stats "llc.requests";
            Some (M_creq idx)
          | None ->
            Stats.incr t.stats "llc.mshr_alloc_stalls";
            None))
  end

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
          Stats.incr t.stats "llc.downgrades_sent";
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
      let lo, hi = entry_range t core in
      downgrade_scan t ~lo ~hi
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
    Stats.incr t.stats "llc.responses_sent";
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
    Array.iter
      (fun uq ->
        match Fifo.peek_opt uq with
        | Some idx -> if try_send_response t idx then ignore (Fifo.deq uq)
        | None -> ())
      t.uqs
  else
    match Fifo.peek_opt t.uqs.(0) with
    | Some idx ->
      if try_send_response t idx then ignore (Fifo.deq t.uqs.(0))
      else Stats.incr t.stats "llc.uq_hol_blocks"
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
    else Stats.incr t.stats "llc.dram_backpressure_stalls"
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
        else Stats.incr t.stats "llc.dram_backpressure_stalls"
      | Dq_wb ->
        if Controller.can_accept t.dram then begin
          ignore (Fifo.deq t.dq);
          Controller.accept t.dram ~now
            { Controller.read = false; line = e.e_wb_line; tag = idx };
          if t.sec.dq_retry then begin
            (* One-cycle dequeue: set the retry bit and re-enter the
               pipeline as a pure miss (Figure 3). *)
            e.e_retry <- true;
            Stats.incr t.stats "llc.dq_retries";
            if Trace.active t.trace Trace.Llc then
              Trace.emit t.trace ~now
                (Trace.Dq_retry { core = e.e_core; idx });
            enqueue_retry t idx
          end
          else begin
            (* Baseline: block the DQ port next cycle for the read. *)
            t.dq_pending_read <- Some idx;
            Stats.incr t.stats "llc.dq_double_dequeues"
          end
        end
        else Stats.incr t.stats "llc.dram_backpressure_stalls"))

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
  Controller.tick t.dram ~now ~respond:(fun ~tag ~line ->
      let e = entry t tag in
      assert (e.e_line = line);
      (* No backpressure on the DRAM response: buffered in the MSHR. *)
      e.e_phase <- P_dram_arrived);
  Selfprof.restore t.selfprof p

let busy t =
  Array.exists (fun e -> e <> None) t.entries
  || Fifo.length t.pipe > 0
  || Controller.outstanding t.dram > 0
  || Array.exists (fun l -> Fifo.length l.Link.rq > 0 || Fifo.length l.Link.rs > 0) t.links

let probe t ~line =
  Sram.find t.array ~set:(set_of t line) ~tag:line <> None

let occupancy t = Sram.count_valid t.array

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
