let sb_tag = 1 lsl 41
let never = max_int

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

(* ROB entry states (also their fold codes). *)
let rs_waiting = 0
let rs_issued = 1
let rs_done = 2

(* Deferred events are ints: the kind in the low [ev_kind_bits] bits, the
   ROB index (or, I-side, the page) above them. *)
let ev_kind_bits = 3
let ev_alu_done = 0 (* ALU/branch result ready; a branch may unblock fetch *)
let ev_store_addr = 1 (* translated store address enters the SQ *)
let ev_load_forward = 2 (* store-to-load forward completes *)
let ev_load_retry = 3 (* the L1D refused the load last cycle *)
let ev_dtlb_l2 = 4 (* D-side L2-TLB lookup *)
let ev_dtlb_walk_retry = 5 (* both walker slots were busy *)
let ev_itlb_l2 = 6
let ev_itlb_walk_retry = 7

(* The timing wheel.  Every delay is in [1, wheel_size) and the core
   ticks every cycle, so an event always lands in a bucket other than
   the one being run, and each bucket holds only events due at its
   cycle: the next cycle congruent to it modulo [wheel_size].  Buckets
   are lists threaded through one pool of event slots. *)
let wheel_size = 32
let wheel_mask = wheel_size - 1

type purge_phase = Pp_none | Pp_quiesce | Pp_flush of int (* start cycle *)

type purge_kind = Pk_enter | Pk_exit | Pk_external

type predictor_ctx = {
  px_tournament : Tournament.snapshot;
  px_btb : Btb.snapshot;
}

(* Counter handles, bound once at [create]. *)
type counters = {
  k_cycles : Stats.counter;
  k_fetched : Stats.counter;
  k_branches : Stats.counter;
  k_mispredicts : Stats.counter;
  k_btb_jump_misses : Stats.counter;
  k_ras_mispredicts : Stats.counter;
  k_dtlb_misses : Stats.counter;
  k_l2tlb_misses : Stats.counter;
  k_itlb_misses : Stats.counter;
  k_traps : Stats.counter;
  k_store_forwards : Stats.counter;
  k_sb_full_stalls : Stats.counter;
  k_purge_stall_cycles : Stats.counter;
  k_predictor_restores : Stats.counter;
  k_purges : Stats.counter;
  k_cpi : Stats.counter array; (* indexed like [cpi_counters] *)
}

(* Every queue is a flat array with a head cursor and a count, every
   optional slot field an int with -1 for "none", so the per-cycle path
   allocates nothing and a checkpoint is a set of array copies. *)
type t = {
  cfg : Core_config.t;
  l1i : L1.t;
  l1d : L1.t;
  stream : unit -> Uop.t option;
  ctr : counters;
  (* Front end *)
  btb : Btb.t;
  tournament : Tournament.t;
  ras : Ras.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  l2tlb : Tlb.t;
  tcache : Trans_cache.t;
  ptw : Ptw.t;
  ptw_issue : line:int -> id:int -> bool; (* walker reads into the L1D *)
  fq_uop : Uop.t array; (* fetch queue ring *)
  fq_mispredict : bool array;
  mutable fq_head : int;
  mutable fq_count : int;
  mutable stream_done : bool;
  mutable fetch_stall_until : int;
  mutable fetch_blocked_on_resolve : bool;
  mutable fetch_blocked_on_trap : bool;
  mutable fetch_wait_icache : bool;
  mutable fetch_wait_itlb : bool;
  mutable last_fetch_line : int;
  mutable last_fetch_page : int;
  (* Rename / backend.  ROB slot [i] is live iff it lies within
     [rob_count] of [rob_head]. *)
  rob_uop : Uop.t array;
  rob_state : int array; (* rs_* *)
  rob_mispredict : bool array;
  rob_dst : int array; (* phys reg written, -1 if none *)
  rob_old : int array; (* previous mapping of the dst, freed at commit *)
  rob_src : int array; (* 2 per slot, phys regs read, -1 padded *)
  rob_lq : int array; (* LQ slot, -1 if none *)
  rob_sq : int array; (* SQ slot, -1 if none *)
  mutable rob_head : int;
  mutable rob_tail : int;
  mutable rob_count : int;
  map_table : int array; (* logical -> phys *)
  free_list : Iring.t;
  ready_at : int array; (* per phys reg *)
  (* Issue queues of ROB indices, oldest first: [alu_pipes] ALU queues,
     then the FP queue, then the MEM queue. *)
  iq : int array array;
  iq_len : int array;
  lq : bool array; (* slot busy *)
  lq_rob : int array; (* LQ slot -> ROB index of its load *)
  sq_line : int array; (* -1 when the slot is free *)
  sq_addr_ready : bool array;
  mutable sq_head : int;
  mutable sq_tail : int;
  mutable sq_count : int;
  sb : bool array; (* store buffer slots busy *)
  sb_lines : int array; (* line held by each store-buffer slot *)
  sb_pending : Iring.t; (* sb slots waiting to drain *)
  mutable dtlb_outstanding : int;
  (* Timing wheel: bucket [b] is the slot list from [ev_head.(b)] to
     [ev_tail.(b)] through [ev_next], in insertion order; free slots
     chain from [ev_free].  [ev_seq] numbers every event in insertion
     order across buckets; only [fold_state] reads it. *)
  ev_code : int array;
  ev_seq : int array;
  ev_next : int array; (* -1 ends a list *)
  ev_head : int array;
  ev_tail : int array;
  mutable ev_free : int;
  mutable ev_live : int;
  mutable ev_next_seq : int;
  mutable purge : purge_phase;
  mutable purge_kind : purge_kind;
  mutable saved_predictors : predictor_ctx option;
  mutable purge_requested : bool;
  mutable committed : int;
  mutable now : int;
  (* Observability *)
  trace : Trace.t;
  selfprof : Selfprof.t;
  id : int; (* core index, for trace attribution *)
  mutable last_cpi : int; (* Cpistack category index of the last tick *)
  mutable purge_started : int;
  lq_issued_at : int array; (* per LQ slot: cycle the load issued *)
  load_lat : Histogram.t; (* load issue-to-complete, cache path only *)
  purge_lat : Histogram.t; (* full purge duration *)
  mutable on_commit : Uop.t -> unit; (* retirement probe, default no-op *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Counter names indexed by Cpistack.categories order:
   base / mispredict / l1_miss / llc_dram / tlb_walk / purge / other. *)
let cpi_counters =
  [|
    "core.cpi.base";
    "core.cpi.mispredict";
    "core.cpi.l1_miss";
    "core.cpi.llc_dram";
    "core.cpi.tlb_walk";
    "core.cpi.purge";
    "core.cpi.other";
  |]

let counters stats =
  let c = Stats.counter stats in
  {
    k_cycles = c "core.cycles";
    k_fetched = c "core.fetched";
    k_branches = c "core.branches";
    k_mispredicts = c "core.mispredicts";
    k_btb_jump_misses = c "core.btb_jump_misses";
    k_ras_mispredicts = c "core.ras_mispredicts";
    k_dtlb_misses = c "core.dtlb_misses";
    k_l2tlb_misses = c "core.l2tlb_misses";
    k_itlb_misses = c "core.itlb_misses";
    k_traps = c "core.traps";
    k_store_forwards = c "core.store_forwards";
    k_sb_full_stalls = c "core.sb_full_stalls";
    k_purge_stall_cycles = c "core.purge_stall_cycles";
    k_predictor_restores = c "core.predictor_restores";
    k_purges = c "core.purges";
    k_cpi = Array.map c cpi_counters;
  }

(* The page walker's memory port: a walk read enters the L1D when it has
   room. *)
let ptw_issue l1d ~line ~id =
  L1.can_accept l1d
  && begin
    L1.request l1d ~line ~store:false ~id;
    true
  end

let fetch_queue_depth = 16

(* Placeholder filling empty fetch-queue and ROB slots. *)
let no_uop = { Uop.pc = 0; kind = Uop.Enter_kernel; dst = None; srcs = [] }

let create ?(trace = Trace.null) ?(selfprof = Selfprof.null) ?(id = 0) cfg
    ~l1i ~l1d ~stream ~stats ~pt_base_line =
  let open Core_config in
  let tcache = Trans_cache.create ~entries_per_level:24 ~levels:2 in
  let free_list = Iring.create ~capacity:cfg.phys_regs in
  for p = 32 to cfg.phys_regs - 1 do
    Iring.push free_list p
  done;
  let rob = cfg.rob_entries in
  (* At most one event per ROB entry is pending at a time, plus the
     I-side's one. *)
  let ev_slots = rob + 1 in
  {
    cfg;
    l1i;
    l1d;
    stream;
    ctr = counters stats;
    btb = Btb.create ();
    tournament = Tournament.create ();
    ras = Ras.create ();
    itlb = Tlb.create Tlb.l1_config;
    dtlb = Tlb.create Tlb.l1_config;
    l2tlb = Tlb.create Tlb.l2_config;
    tcache;
    ptw =
      Ptw.create ~trace ~core:id ~max_walks:2 ~tcache ~pt_base_line
        ~table_window_lines:4096 ();
    ptw_issue = ptw_issue l1d;
    fq_uop = Array.make fetch_queue_depth no_uop;
    fq_mispredict = Array.make fetch_queue_depth false;
    fq_head = 0;
    fq_count = 0;
    stream_done = false;
    fetch_stall_until = 0;
    fetch_blocked_on_resolve = false;
    fetch_blocked_on_trap = false;
    fetch_wait_icache = false;
    fetch_wait_itlb = false;
    last_fetch_line = -1;
    last_fetch_page = -1;
    rob_uop = Array.make rob no_uop;
    rob_state = Array.make rob rs_waiting;
    rob_mispredict = Array.make rob false;
    rob_dst = Array.make rob (-1);
    rob_old = Array.make rob (-1);
    rob_src = Array.make (2 * rob) (-1);
    rob_lq = Array.make rob (-1);
    rob_sq = Array.make rob (-1);
    rob_head = 0;
    rob_tail = 0;
    rob_count = 0;
    map_table = Array.init 32 (fun i -> i);
    free_list;
    ready_at = Array.make cfg.phys_regs 0;
    iq =
      Array.init (cfg.alu_pipes + 2) (fun _ -> Array.make cfg.iq_entries 0);
    iq_len = Array.make (cfg.alu_pipes + 2) 0;
    lq = Array.make cfg.lq_entries false;
    lq_rob = Array.make cfg.lq_entries (-1);
    sq_line = Array.make cfg.sq_entries (-1);
    sq_addr_ready = Array.make cfg.sq_entries false;
    sq_head = 0;
    sq_tail = 0;
    sq_count = 0;
    sb = Array.make cfg.sb_entries false;
    sb_lines = Array.make cfg.sb_entries 0;
    sb_pending = Iring.create ~capacity:cfg.sb_entries;
    dtlb_outstanding = 0;
    ev_code = Array.make ev_slots 0;
    ev_seq = Array.make ev_slots 0;
    ev_next = Array.init ev_slots (fun i -> if i + 1 < ev_slots then i + 1 else -1);
    ev_head = Array.make wheel_size (-1);
    ev_tail = Array.make wheel_size (-1);
    ev_free = 0;
    ev_live = 0;
    ev_next_seq = 0;
    purge = Pp_none;
    purge_kind = Pk_external;
    saved_predictors = None;
    purge_requested = false;
    committed = 0;
    now = 0;
    trace;
    selfprof;
    id;
    last_cpi = 6;
    on_commit = ignore;
    purge_started = 0;
    lq_issued_at = Array.make cfg.lq_entries 0;
    load_lat = Histogram.create ();
    purge_lat = Histogram.create ();
  }

let committed_instructions t = t.committed
let set_on_commit t f = t.on_commit <- f
let purging t = t.purge <> Pp_none
let load_latency t = t.load_lat
let purge_latency t = t.purge_lat
let walk_latency t = Ptw.walk_latency t.ptw

let purge_kind_name = function
  | Pk_enter -> "enter"
  | Pk_exit -> "exit"
  | Pk_external -> "external"

let begin_purge t kind =
  t.purge <- Pp_quiesce;
  t.purge_kind <- kind;
  t.purge_started <- t.now;
  if Trace.active t.trace Trace.Purge then begin
    Trace.emit t.trace ~now:t.now
      (Trace.Purge_begin { core = t.id; kind = purge_kind_name kind });
    Trace.emit t.trace ~now:t.now
      (Trace.Purge_phase { core = t.id; phase = "quiesce" })
  end

let predictor_signature t =
  (Tournament.state_signature t.tournament * 31)
  + (Btb.occupancy t.btb * 7)
  + Ras.depth t.ras

let request_purge t = t.purge_requested <- true

(* ------------------------------------------------------------------ *)
(* ROB helpers                                                         *)
(* ------------------------------------------------------------------ *)

let rob_size t = Array.length t.rob_uop
let rob_full t = t.rob_count = rob_size t
let rob_empty t = t.rob_count = 0

let rob_live t i =
  let n = rob_size t in
  (i - t.rob_head + n) mod n < t.rob_count

let srcs_ready t idx =
  let s0 = t.rob_src.(2 * idx) and s1 = t.rob_src.((2 * idx) + 1) in
  (s0 < 0 || t.ready_at.(s0) <= t.now) && (s1 < 0 || t.ready_at.(s1) <= t.now)

let mark_done t idx =
  t.rob_state.(idx) <- rs_done;
  let p = t.rob_dst.(idx) in
  if p >= 0 then t.ready_at.(p) <- min t.ready_at.(p) t.now

let set_dst_ready_at t idx at =
  let p = t.rob_dst.(idx) in
  if p >= 0 then t.ready_at.(p) <- at

let mem_addr t idx =
  match t.rob_uop.(idx).Uop.kind with
  | Uop.Load { addr } | Uop.Store { addr } -> addr
  | _ -> invalid_arg "Core: not a memory µop"

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let after t delay code =
  if delay < 1 || delay >= wheel_size then
    invalid_arg
      (Printf.sprintf "Core: event delay %d outside [1, %d)" delay wheel_size);
  let i = t.ev_free in
  if i < 0 then failwith "Core: no free event slot";
  t.ev_free <- t.ev_next.(i);
  t.ev_code.(i) <- code;
  t.ev_seq.(i) <- t.ev_next_seq;
  t.ev_next_seq <- t.ev_next_seq + 1;
  t.ev_next.(i) <- -1;
  let b = (t.now + delay) land wheel_mask in
  if t.ev_head.(b) < 0 then t.ev_head.(b) <- i
  else t.ev_next.(t.ev_tail.(b)) <- i;
  t.ev_tail.(b) <- i;
  t.ev_live <- t.ev_live + 1

let event kind arg = (arg lsl ev_kind_bits) lor kind

(* ------------------------------------------------------------------ *)
(* Translation (D-side and I-side misses)                              *)
(* ------------------------------------------------------------------ *)

(* A walk's token names its requester: a ROB index (D-side) or a page
   (I-side) above a side bit. *)
let walk_token_d idx = idx lsl 1
let walk_token_i page = (page lsl 1) lor 1

let start_walk t ~vpage ~token ~retry =
  if Ptw.can_start t.ptw then Ptw.start ~now:t.now t.ptw ~vpage ~token
  else after t 1 retry

(* A load whose translation is available reaches the L1D once it has
   room. *)
let load_to_cache t idx =
  if L1.can_accept t.l1d then
    L1.request t.l1d ~line:(mem_addr t idx lsr 6) ~store:false
      ~id:t.rob_lq.(idx)
  else after t 1 (event ev_load_retry idx)

(* The memory µop at [idx] has its translation: a store's address
   enters the SQ next cycle; a load forwards from an older store or goes
   to the cache. *)
let translated t idx =
  match t.rob_uop.(idx).Uop.kind with
  | Uop.Store _ -> after t 1 (event ev_store_addr idx)
  | Uop.Load { addr } ->
    let line = addr lsr 6 in
    let found = ref false in
    (* Store-to-load forwarding: an older SQ entry with a ready address
       on the same line forwards, as does a store-buffer entry that has
       retired but not yet drained to the D-cache.  (Timing model:
       unknown older store addresses do not block the load — RiscyOO
       issues loads speculatively.) *)
    for i = 0 to Array.length t.sq_line - 1 do
      if t.sq_addr_ready.(i) && t.sq_line.(i) = line then found := true
    done;
    for i = 0 to Array.length t.sb - 1 do
      if t.sb.(i) && t.sb_lines.(i) = line then found := true
    done;
    if !found then begin
      Stats.bump t.ctr.k_store_forwards;
      after t 1 (event ev_load_forward idx)
    end
    else load_to_cache t idx
  | _ -> assert false

(* Attempt to begin translation for the memory µop at [idx]; [translated]
   runs when it is available.  Returns false when the DTLB cannot take
   another miss this cycle (caller retries next cycle). *)
let translate_d t idx =
  let vpage = mem_addr t idx / 4096 in
  if Tlb.lookup t.dtlb ~vpage then begin
    translated t idx;
    true
  end
  else if t.dtlb_outstanding >= t.cfg.Core_config.dtlb_misses then false
  else begin
    Stats.bump t.ctr.k_dtlb_misses;
    t.dtlb_outstanding <- t.dtlb_outstanding + 1;
    after t t.cfg.Core_config.l2tlb_latency (event ev_dtlb_l2 idx);
    true
  end

let dtlb_l2 t idx =
  let vpage = mem_addr t idx / 4096 in
  if Tlb.lookup t.l2tlb ~vpage then begin
    Tlb.insert t.dtlb ~vpage;
    t.dtlb_outstanding <- t.dtlb_outstanding - 1;
    translated t idx
  end
  else begin
    Stats.bump t.ctr.k_l2tlb_misses;
    (* Hardware walk; waits for a walker slot if both are busy. *)
    start_walk t ~vpage ~token:(walk_token_d idx)
      ~retry:(event ev_dtlb_walk_retry idx)
  end

let itlb_l2 t page =
  if Tlb.lookup t.l2tlb ~vpage:page then begin
    Tlb.insert t.itlb ~vpage:page;
    t.fetch_wait_itlb <- false
  end
  else
    start_walk t ~vpage:page ~token:(walk_token_i page)
      ~retry:(event ev_itlb_walk_retry page)

let walk_done t token =
  if token land 1 = 0 then begin
    let idx = token lsr 1 in
    let vpage = mem_addr t idx / 4096 in
    Tlb.insert t.l2tlb ~vpage;
    Tlb.insert t.dtlb ~vpage;
    t.dtlb_outstanding <- t.dtlb_outstanding - 1;
    translated t idx
  end
  else begin
    let page = token lsr 1 in
    Tlb.insert t.l2tlb ~vpage:page;
    Tlb.insert t.itlb ~vpage:page;
    t.fetch_wait_itlb <- false
  end

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let alu_done t idx =
  t.rob_state.(idx) <- rs_done;
  (* Control resolution restarts a stalled front end. *)
  match t.rob_uop.(idx).Uop.kind with
  | Uop.Branch _ | Uop.Jump _ ->
    if t.rob_mispredict.(idx) then begin
      t.rob_mispredict.(idx) <- false;
      t.fetch_blocked_on_resolve <- false;
      t.fetch_stall_until <-
        max t.fetch_stall_until (t.now + t.cfg.Core_config.redirect_penalty)
    end
  | _ -> ()

let fire t code =
  let arg = code lsr ev_kind_bits in
  (* Arms in [ev_*] order. *)
  match code land ((1 lsl ev_kind_bits) - 1) with
  | 0 -> alu_done t arg
  | 1 ->
    t.sq_addr_ready.(t.rob_sq.(arg)) <- true;
    t.rob_state.(arg) <- rs_done
  | 2 -> mark_done t arg
  | 3 -> load_to_cache t arg
  | 4 -> dtlb_l2 t arg
  | 5 ->
    start_walk t
      ~vpage:(mem_addr t arg / 4096)
      ~token:(walk_token_d arg) ~retry:code
  | 6 -> itlb_l2 t arg
  | _ (* ev_itlb_walk_retry *) ->
    start_walk t ~vpage:arg ~token:(walk_token_i arg) ~retry:code

(* Runs the bucket due this cycle, oldest first.  Handlers only schedule
   into other buckets, so the bucket is detached up front and each slot
   is freed before its handler runs. *)
let run_events t =
  let b = t.now land wheel_mask in
  let i = ref t.ev_head.(b) in
  t.ev_head.(b) <- -1;
  while !i >= 0 do
    let slot = !i in
    let code = t.ev_code.(slot) in
    i := t.ev_next.(slot);
    t.ev_next.(slot) <- t.ev_free;
    t.ev_free <- slot;
    t.ev_live <- t.ev_live - 1;
    fire t code
  done

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

(* Handle I-side line/page transitions; true when the µop's line is
   available this cycle. *)
let fetch_mem_ok t (u : Uop.t) =
  let line = u.Uop.pc lsr 6 in
  let page = u.Uop.pc lsr 12 in
  if t.fetch_wait_icache || t.fetch_wait_itlb then false
  else if line = t.last_fetch_line then true
  else begin
    (* Page transition first: I-TLB. *)
    if page <> t.last_fetch_page && not (Tlb.lookup t.itlb ~vpage:page) then begin
      Stats.bump t.ctr.k_itlb_misses;
      t.fetch_wait_itlb <- true;
      after t t.cfg.Core_config.l2tlb_latency (event ev_itlb_l2 page);
      false
    end
    else begin
      if page <> t.last_fetch_page then t.last_fetch_page <- page;
      (* I-cache: pipelined hits are free; misses stall fetch. *)
      if L1.try_hit t.l1i ~line then begin
        t.last_fetch_line <- line;
        (* Next-line instruction prefetch (RiscyOO fetches ahead). *)
        if L1.probe t.l1i ~line:(line + 1) = Msi.I && L1.can_accept t.l1i
        then L1.request t.l1i ~line:(line + 1) ~store:false ~id:1;
        true
      end
      else if L1.can_accept t.l1i then begin
        L1.request t.l1i ~line ~store:false ~id:0;
        t.fetch_wait_icache <- true;
        t.last_fetch_line <- line;
        (if L1.probe t.l1i ~line:(line + 1) = Msi.I && L1.can_accept t.l1i
         then L1.request t.l1i ~line:(line + 1) ~store:false ~id:1);
        false
      end
      else false
    end
  end

(* Branch prediction at fetch: trains the structures and reports whether
   fetch must stall (resolution-based redirect) or take a small
   decode-time redirect. *)
type fetch_outcome = F_ok | F_stall_until_resolve | F_decode_redirect

let predict_control t (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Branch { taken; target } ->
    Stats.bump t.ctr.k_branches;
    let pred_dir = Tournament.predict t.tournament ~pc:u.Uop.pc in
    let btb_hit = Btb.predicts t.btb ~pc:u.Uop.pc ~target in
    Tournament.update t.tournament ~pc:u.Uop.pc ~taken;
    if taken then Btb.update t.btb ~pc:u.Uop.pc ~target;
    if pred_dir <> taken || (taken && not btb_hit) then begin
      Stats.bump t.ctr.k_mispredicts;
      F_stall_until_resolve
    end
    else F_ok
  | Uop.Jump { target; kind } -> (
    match kind with
    | `Plain | `Call ->
      if kind = `Call then Ras.push t.ras (u.Uop.pc + 4);
      let hit = Btb.predicts t.btb ~pc:u.Uop.pc ~target in
      Btb.update t.btb ~pc:u.Uop.pc ~target;
      if hit then F_ok
      else begin
        Stats.bump t.ctr.k_btb_jump_misses;
        F_decode_redirect
      end
    | `Return ->
      let pred = Ras.pop t.ras in
      if pred = target then F_ok
      else begin
        Stats.bump t.ctr.k_ras_mispredicts;
        Stats.bump t.ctr.k_mispredicts;
        F_stall_until_resolve
      end)
  | _ -> F_ok

let fetch_stage t =
  if
    t.now >= t.fetch_stall_until
    && (not t.fetch_blocked_on_resolve)
    && (not t.fetch_blocked_on_trap)
    && not t.stream_done
  then begin
    let budget = ref t.cfg.Core_config.fetch_width in
    let stop = ref false in
    while !budget > 0 && (not !stop) && t.fq_count < fetch_queue_depth do
      match t.stream () with
      | None ->
        t.stream_done <- true;
        stop := true
      | Some u ->
        (* The µop is "fetched" only if its I-line is ready; otherwise it
           still enters the fetch queue but fetch stalls behind it.  We
           model by consuming it and stalling afterwards. *)
        let mem_ok = fetch_mem_ok t u in
        Stats.bump t.ctr.k_fetched;
        let mispredicted = ref false in
        (match u.Uop.kind with
        | Uop.Branch _ | Uop.Jump _ -> (
          match predict_control t u with
          | F_ok -> ()
          | F_stall_until_resolve ->
            mispredicted := true;
            t.fetch_blocked_on_resolve <- true;
            stop := true
          | F_decode_redirect ->
            t.fetch_stall_until <- t.now + t.cfg.Core_config.decode_redirect;
            stop := true)
        | Uop.Enter_kernel | Uop.Exit_kernel ->
          (* Trap boundary: fetch may not run ahead into the handler (or
             back into user code) until the trap is delivered — i.e. the
             marker reaches rename with an empty ROB.  Letting the front
             end prefetch across the boundary while the older µops drain
             would warm the next domain's I-lines by an amount that
             depends on the drain, an interrupt-schedule side channel
             the purge could never scrub. *)
          t.fetch_blocked_on_trap <- true;
          stop := true
        | Uop.Alu _ | Uop.Load _ | Uop.Store _ -> ());
        let i = (t.fq_head + t.fq_count) mod fetch_queue_depth in
        t.fq_uop.(i) <- u;
        t.fq_mispredict.(i) <- !mispredicted;
        t.fq_count <- t.fq_count + 1;
        if not mem_ok then stop := true else decr budget
    done
  end

(* ------------------------------------------------------------------ *)
(* Rename / dispatch                                                   *)
(* ------------------------------------------------------------------ *)

(* The lowest free slot of a busy-flag array, or -1.  Per-cycle scans
   are loops: a local recursive function would allocate its closure. *)
let first_free busy =
  let slot = ref (-1) and i = ref 0 in
  while !slot < 0 && !i < Array.length busy do
    if not busy.(!i) then slot := !i;
    incr i
  done;
  !slot

let alloc_lq t = first_free t.lq

let fp_queue t = t.cfg.Core_config.alu_pipes
let mem_queue t = t.cfg.Core_config.alu_pipes + 1

let iq_push t q idx =
  t.iq.(q).(t.iq_len.(q)) <- idx;
  t.iq_len.(q) <- t.iq_len.(q) + 1

let dispatch_iq t idx (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Load _ | Uop.Store _ -> iq_push t (mem_queue t) idx
  | Uop.Alu { pipe = Uop.Pipe_fp; _ } -> iq_push t (fp_queue t) idx
  | Uop.Alu _ | Uop.Branch _ | Uop.Jump _ ->
    (* Pick the shorter ALU issue queue; the lowest index wins ties. *)
    let best = ref 0 in
    for q = 1 to t.cfg.Core_config.alu_pipes - 1 do
      if t.iq_len.(q) < t.iq_len.(!best) then best := q
    done;
    iq_push t !best idx
  | Uop.Enter_kernel | Uop.Exit_kernel -> ()

let iq_has_room t (u : Uop.t) =
  let cap = t.cfg.Core_config.iq_entries in
  match u.Uop.kind with
  | Uop.Load _ | Uop.Store _ -> t.iq_len.(mem_queue t) < cap
  | Uop.Alu { pipe = Uop.Pipe_fp; _ } -> t.iq_len.(fp_queue t) < cap
  | Uop.Alu _ | Uop.Branch _ | Uop.Jump _ ->
    let room = ref false in
    for q = 0 to t.cfg.Core_config.alu_pipes - 1 do
      if t.iq_len.(q) < cap then room := true
    done;
    !room
  | Uop.Enter_kernel | Uop.Exit_kernel -> true

let rename_srcs t idx (u : Uop.t) =
  let s = 2 * idx in
  match u.Uop.srcs with
  | [] ->
    t.rob_src.(s) <- -1;
    t.rob_src.(s + 1) <- -1
  | [ a ] ->
    t.rob_src.(s) <- t.map_table.(a);
    t.rob_src.(s + 1) <- -1
  | [ a; b ] ->
    t.rob_src.(s) <- t.map_table.(a);
    t.rob_src.(s + 1) <- t.map_table.(b)
  | _ -> invalid_arg "Core: a µop reads at most two registers"

let rename_stage t =
  let budget = ref t.cfg.Core_config.fetch_width in
  let stop = ref false in
  while !budget > 0 && (not !stop) && t.fq_count > 0 do
    let u = t.fq_uop.(t.fq_head) in
    let is_mem = Uop.is_mem u in
    let is_marker =
      match u.Uop.kind with
      | Uop.Enter_kernel | Uop.Exit_kernel -> true
      | _ -> false
    in
    let nonspec_block =
      t.cfg.Core_config.nonspec_mem && is_mem && not (rob_empty t)
    in
    let marker_block = is_marker && not (rob_empty t) in
    let needs_dst = match u.Uop.dst with Some _ -> true | None -> false in
    let sq_needed = match u.Uop.kind with Uop.Store _ -> true | _ -> false in
    let lq_needed = match u.Uop.kind with Uop.Load _ -> true | _ -> false in
    if
      rob_full t || nonspec_block || marker_block
      || (needs_dst && Iring.is_empty t.free_list)
      || (not (iq_has_room t u))
      || (sq_needed && t.sq_count = Array.length t.sq_line)
      || (lq_needed && alloc_lq t < 0)
    then stop := true
    else begin
      let pre_mispredict = t.fq_mispredict.(t.fq_head) in
      t.fq_head <- (t.fq_head + 1) mod fetch_queue_depth;
      t.fq_count <- t.fq_count - 1;
      if is_marker then begin
        (* Serialized trap boundary: costs the trap latency and, in FLUSH
           variants, triggers the purge state machine.  Nothing younger
           may rename this cycle (the purge needs an empty machine). *)
        t.committed <- t.committed + 1;
        t.on_commit u;
        Stats.bump t.ctr.k_traps;
        (* Trap delivered: the front end redirects into the handler and
           pays the refill penalty (absorbed by the purge stall on the
           flushing variants). *)
        t.fetch_blocked_on_trap <- false;
        t.fetch_stall_until <-
          max t.fetch_stall_until (t.now + t.cfg.Core_config.redirect_penalty);
        if t.cfg.Core_config.flush_on_trap then begin
          begin_purge t
            (match u.Uop.kind with
            | Uop.Enter_kernel -> Pk_enter
            | _ -> Pk_exit);
          stop := true
        end
      end
      else begin
        let idx = t.rob_tail in
        (* Sources read the mappings from before this µop's own dst. *)
        rename_srcs t idx u;
        (match u.Uop.dst with
        | None ->
          t.rob_dst.(idx) <- -1;
          t.rob_old.(idx) <- -1
        | Some d ->
          let p = Iring.pop t.free_list in
          t.rob_dst.(idx) <- p;
          t.rob_old.(idx) <- t.map_table.(d);
          t.map_table.(d) <- p;
          t.ready_at.(p) <- never);
        (if lq_needed then begin
           let s = alloc_lq t in
           t.lq.(s) <- true;
           t.lq_rob.(s) <- idx;
           t.rob_lq.(idx) <- s
         end
         else t.rob_lq.(idx) <- -1);
        (match u.Uop.kind with
        | Uop.Store { addr } ->
          let s = t.sq_tail in
          t.sq_tail <- (t.sq_tail + 1) mod Array.length t.sq_line;
          t.sq_count <- t.sq_count + 1;
          t.sq_line.(s) <- addr lsr 6;
          t.sq_addr_ready.(s) <- false;
          t.rob_sq.(idx) <- s
        | _ -> t.rob_sq.(idx) <- -1);
        t.rob_uop.(idx) <- u;
        t.rob_state.(idx) <- rs_waiting;
        t.rob_mispredict.(idx) <- pre_mispredict;
        t.rob_tail <- (t.rob_tail + 1) mod rob_size t;
        t.rob_count <- t.rob_count + 1;
        dispatch_iq t idx u
      end;
      decr budget
    end
  done

(* ------------------------------------------------------------------ *)
(* Issue / execute                                                     *)
(* ------------------------------------------------------------------ *)

(* Oldest-first scan: position in queue [q] of the first waiting entry
   whose sources are ready, or -1. *)
let pick_ready t q =
  let entries = t.iq.(q) and n = t.iq_len.(q) in
  let pos = ref (-1) and k = ref 0 in
  while !pos < 0 && !k < n do
    let idx = entries.(!k) in
    if t.rob_state.(idx) = rs_waiting && srcs_ready t idx then pos := !k;
    incr k
  done;
  !pos

let iq_remove t q k =
  let n = t.iq_len.(q) in
  Array.blit t.iq.(q) (k + 1) t.iq.(q) k (n - k - 1);
  t.iq_len.(q) <- n - 1

let issue_alu_like t idx =
  t.rob_state.(idx) <- rs_issued;
  let latency =
    match t.rob_uop.(idx).Uop.kind with
    | Uop.Alu { latency; _ } -> latency
    | Uop.Branch _ | Uop.Jump _ -> 1
    | _ -> assert false
  in
  set_dst_ready_at t idx (t.now + latency);
  after t latency (event ev_alu_done idx)

(* Address generation + translation; a store "executes" when its address
   is translated and entered into the SQ, a load when its data returns.
   A DTLB-port stall reverts the µop to waiting (retry). *)
let issue_mem t idx =
  t.rob_state.(idx) <- rs_issued;
  (match t.rob_uop.(idx).Uop.kind with
  | Uop.Load _ -> t.lq_issued_at.(t.rob_lq.(idx)) <- t.now
  | _ -> ());
  if not (translate_d t idx) then t.rob_state.(idx) <- rs_waiting

let issue_stage t =
  for q = 0 to mem_queue t - 1 do
    (* ALU queues, then FP *)
    let k = pick_ready t q in
    if k >= 0 then begin
      let idx = t.iq.(q).(k) in
      iq_remove t q k;
      issue_alu_like t idx
    end
  done;
  let q = mem_queue t in
  let k = pick_ready t q in
  if k >= 0 then begin
    let idx = t.iq.(q).(k) in
    issue_mem t idx;
    (* Leave in the queue on a DTLB-port stall (state reverted). *)
    if t.rob_state.(idx) <> rs_waiting then iq_remove t q k
  end

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)
(* ------------------------------------------------------------------ *)

let sb_stage t =
  if (not (Iring.is_empty t.sb_pending)) && L1.can_accept t.l1d then begin
    let slot = Iring.pop t.sb_pending in
    L1.request t.l1d ~line:t.sb_lines.(slot) ~store:true ~id:(sb_tag lor slot)
  end

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let commit_stage t =
  let budget = ref t.cfg.Core_config.commit_width in
  let stop = ref false in
  while !budget > 0 && (not !stop) && not (rob_empty t) do
    let idx = t.rob_head in
    if t.rob_state.(idx) <> rs_done then stop := true
    else begin
      let can_retire =
        match t.rob_uop.(idx).Uop.kind with
        | Uop.Store _ ->
          (* Needs a store-buffer slot; the SB drains in background. *)
          let slot = first_free t.sb in
          if slot >= 0 then begin
            t.sb.(slot) <- true;
            t.sb_lines.(slot) <- t.sq_line.(t.rob_sq.(idx));
            Iring.push t.sb_pending slot;
            true
          end
          else begin
            Stats.bump t.ctr.k_sb_full_stalls;
            false
          end
        | _ -> true
      in
      if not can_retire then stop := true
      else begin
        if t.rob_old.(idx) >= 0 then Iring.push t.free_list t.rob_old.(idx);
        if t.rob_lq.(idx) >= 0 then t.lq.(t.rob_lq.(idx)) <- false;
        let s = t.rob_sq.(idx) in
        if s >= 0 then begin
          t.sq_line.(s) <- -1;
          t.sq_addr_ready.(s) <- false;
          t.sq_head <- (t.sq_head + 1) mod Array.length t.sq_line;
          t.sq_count <- t.sq_count - 1
        end;
        t.rob_head <- (t.rob_head + 1) mod rob_size t;
        t.rob_count <- t.rob_count - 1;
        t.committed <- t.committed + 1;
        t.on_commit t.rob_uop.(idx);
        decr budget
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Purge state machine (Section 6 / 7.1)                               *)
(* ------------------------------------------------------------------ *)

let backend_quiescent t =
  rob_empty t
  && Iring.is_empty t.sb_pending
  && Array.for_all not t.sb
  && L1.in_flight t.l1d = 0
  && L1.in_flight t.l1i = 0
  && Ptw.active_walks t.ptw = 0
  && t.dtlb_outstanding = 0
  && t.ev_live = 0

let debug_quiescence t =
  Printf.sprintf
    "rob=%d sbp=%d sb=%b l1d=%d l1i=%d ptw=%d dtlb=%d events=%d wait_ic=%b wait_it=%b"
    t.rob_count (Iring.length t.sb_pending)
    (Array.exists (fun x -> x) t.sb)
    (L1.in_flight t.l1d) (L1.in_flight t.l1i) (Ptw.active_walks t.ptw)
    t.dtlb_outstanding t.ev_live t.fetch_wait_icache t.fetch_wait_itlb

let purge_stage t =
  match t.purge with
  | Pp_none -> ()
  | Pp_quiesce ->
    Stats.bump t.ctr.k_purge_stall_cycles;
    if backend_quiescent t then begin
      L1.begin_flush t.l1i;
      L1.begin_flush t.l1d;
      if Trace.active t.trace Trace.Purge then
        Trace.emit t.trace ~now:t.now
          (Trace.Purge_phase { core = t.id; phase = "flush" });
      t.purge <- Pp_flush t.now
    end
  | Pp_flush started ->
    Stats.bump t.ctr.k_purge_stall_cycles;
    (* One line per cycle per L1; TLB sets and predictor entries flush in
       parallel within the purge floor. *)
    let i_done = if L1.is_flushing t.l1i then L1.flush_step t.l1i else true in
    let d_done = if L1.is_flushing t.l1d then L1.flush_step t.l1d else true in
    if i_done && d_done && t.now - started >= t.cfg.Core_config.purge_floor
    then begin
      (* Predictor handling: the optional save/restore extension keeps a
         domain's own predictor state across the kernel excursion; the
         kernel itself always starts from the public reset state. *)
      let sr = t.cfg.Core_config.save_restore_predictors in
      (match (sr, t.purge_kind, t.saved_predictors) with
      | true, Pk_enter, _ ->
        t.saved_predictors <-
          Some
            {
              px_tournament = Tournament.snapshot t.tournament;
              px_btb = Btb.snapshot t.btb;
            };
        Tournament.flush t.tournament;
        Btb.flush t.btb
      | true, Pk_exit, Some ctx ->
        Tournament.restore t.tournament ctx.px_tournament;
        Btb.restore t.btb ctx.px_btb;
        t.saved_predictors <- None;
        Stats.bump t.ctr.k_predictor_restores
      | _ ->
        t.saved_predictors <- None;
        Tournament.flush t.tournament;
        Btb.flush t.btb);
      Ras.flush t.ras;
      Tlb.flush_all t.itlb;
      Tlb.flush_all t.dtlb;
      Tlb.flush_all t.l2tlb;
      Trans_cache.flush t.tcache;
      t.last_fetch_line <- -1;
      t.last_fetch_page <- -1;
      Stats.bump t.ctr.k_purges;
      let dur = t.now - t.purge_started in
      Histogram.add t.purge_lat dur;
      if Trace.active t.trace Trace.Purge then
        Trace.emit t.trace ~now:t.now
          (Trace.Purge_end { core = t.id; cycles = dur });
      t.purge <- Pp_none
    end

(* L1.flush_step raises when not flushing; during Pp_flush both are.  The
   two flush_step calls above also send the per-line eviction notices that
   make L1 flushes cost one LLC message per line (Section 7.1). *)

(* ------------------------------------------------------------------ *)
(* CPI-stack attribution                                               *)
(* ------------------------------------------------------------------ *)

(* Top-down attribution: every tick is charged to exactly one
   [core.cpi.*] counter, so within any measurement window the seven
   buckets sum to the cycle count by construction (mi6_sim profile and
   the regression DB rely on that invariant).  Priority order: useful
   commit beats everything; a purge explains any stall during it; an
   empty ROB is a front-end problem (redirect refill, I-cache miss,
   I-TLB refill); otherwise the ROB head names the bottleneck — memory
   stalls split into TLB-walk, L1-miss (served within the LLC round
   trip) and LLC/DRAM (older than the round-trip hint). *)

let attribute_cycle t ~committed_before =
  let cat =
    if t.committed > committed_before then 0 (* base *)
    else if purging t then 5 (* purge *)
    else if rob_empty t then
      if t.fetch_blocked_on_resolve || t.now < t.fetch_stall_until then
        1 (* mispredict *)
      else if t.fetch_wait_icache then 2 (* l1_miss *)
      else if t.fetch_wait_itlb then 4 (* tlb_walk *)
      else 6 (* other *)
    else begin
      let idx = t.rob_head in
      let state = t.rob_state.(idx) in
      match t.rob_uop.(idx).Uop.kind with
      | (Uop.Load _ | Uop.Store _) when state <> rs_done ->
        if t.dtlb_outstanding > 0 || Ptw.active_walks t.ptw > 0 then
          4 (* tlb_walk *)
        else begin
          match t.rob_uop.(idx).Uop.kind with
          | Uop.Load _ when state = rs_issued ->
            if
              t.now - t.lq_issued_at.(t.rob_lq.(idx))
              > t.cfg.Core_config.llc_roundtrip_hint
            then 3 (* llc_dram *)
            else 2 (* l1_miss *)
          | _ -> 6
        end
      | _ -> 6
    end
  in
  t.last_cpi <- cat;
  Stats.bump t.ctr.k_cpi.(cat)

(* The stall category (Cpistack.categories index) the last tick was
   attributed to; feeds the per-cause quiet-cycle accounting. *)
let last_cycle_cause t = t.last_cpi

(* ------------------------------------------------------------------ *)
(* Tick and completions                                                *)
(* ------------------------------------------------------------------ *)

let tick t ~now =
  t.now <- now;
  let committed_before = t.committed in
  Stats.bump t.ctr.k_cycles;
  if now land 255 = 0 && Trace.active t.trace Trace.Core then
    Trace.emit t.trace ~now
      (Trace.Counter { core = t.id; name = "rob"; value = t.rob_count });
  (* Host-cost attribution: the stages run strictly in sequence, so a
     plain [switch] per stage suffices; [p0] (normally [harness]) is
     restored on exit. *)
  let sp = t.selfprof in
  let p0 = Selfprof.switch sp Selfprof.ph_exec in
  run_events t;
  (match t.purge with
  | Pp_quiesce | Pp_flush _ ->
    (* The core idles while purging; only the drain machinery runs. *)
    ignore (Selfprof.switch sp Selfprof.ph_mem);
    sb_stage t;
    ignore (Selfprof.switch sp Selfprof.ph_ptw);
    Ptw.tick t.ptw ~issue:t.ptw_issue;
    ignore (Selfprof.switch sp Selfprof.ph_commit);
    commit_stage t;
    ignore (Selfprof.switch sp Selfprof.ph_purge);
    purge_stage t
  | Pp_none ->
    if t.purge_requested then begin
      t.purge_requested <- false;
      ignore (Selfprof.switch sp Selfprof.ph_purge);
      begin_purge t Pk_external;
      purge_stage t
    end
    else begin
      ignore (Selfprof.switch sp Selfprof.ph_commit);
      commit_stage t;
      ignore (Selfprof.switch sp Selfprof.ph_issue);
      issue_stage t;
      ignore (Selfprof.switch sp Selfprof.ph_mem);
      sb_stage t;
      ignore (Selfprof.switch sp Selfprof.ph_ptw);
      Ptw.tick t.ptw ~issue:t.ptw_issue;
      ignore (Selfprof.switch sp Selfprof.ph_rename);
      rename_stage t;
      ignore (Selfprof.switch sp Selfprof.ph_fetch);
      fetch_stage t
    end);
  attribute_cycle t ~committed_before;
  Selfprof.restore sp p0

let mem_complete t ~now ~id =
  t.now <- max t.now now;
  if id land Ptw.id_tag <> 0 then begin
    let token = Ptw.mem_response ~now t.ptw ~id in
    if token >= 0 then walk_done t token
  end
  else if id land sb_tag <> 0 then t.sb.(id land lnot sb_tag) <- false
  else begin
    (* Load completion: the ROB entry owning this LQ slot. *)
    let idx = if id < Array.length t.lq_rob then t.lq_rob.(id) else -1 in
    if
      idx < 0
      || (not (rob_live t idx))
      || t.rob_lq.(idx) <> id
      || t.rob_state.(idx) <> rs_issued
    then failwith "Core.mem_complete: orphan load completion";
    t.rob_state.(idx) <- rs_done;
    Histogram.add t.load_lat (now - t.lq_issued_at.(id));
    set_dst_ready_at t idx now
  end

let icache_complete t ~id =
  (* id 1 completions are prefetches; only the demand line unblocks
     fetch. *)
  if id = 0 then t.fetch_wait_icache <- false

let finished t =
  t.stream_done && rob_empty t && t.fq_count = 0
  && backend_quiescent t && t.purge = Pp_none
  && not t.purge_requested

(* ------------------------------------------------------------------ *)
(* Occupancy probes                                                    *)
(* ------------------------------------------------------------------ *)

let rob_occupancy t = t.rob_count
let iq_occupancy t = Array.fold_left ( + ) 0 t.iq_len
let count_busy a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a
let lq_occupancy t = count_busy t.lq
let sq_occupancy t = t.sq_count
let sb_occupancy t = count_busy t.sb

let state_name st =
  if st = rs_waiting then "waiting" else if st = rs_issued then "issued"
  else "done"

(* In-flight (renamed, not yet retired) µops oldest-first, with the ROB
   state of each; causal-slice reports render these. *)
let in_flight_uops t =
  List.init t.rob_count (fun k ->
      let idx = (t.rob_head + k) mod rob_size t in
      (t.rob_uop.(idx), state_name t.rob_state.(idx)))

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                                *)
(* ------------------------------------------------------------------ *)

(* All core state is values in flat arrays and scalars, so a checkpoint
   is copies of them.  The µop stream, L1s, stats and trace are owned by
   the machine, which checkpoints them alongside.  [on_commit] is a
   harness probe, not machine state, and is left untouched. *)

type predictor_ck = {
  pk_btb : Btb.snapshot;
  pk_tournament : Tournament.snapshot;
  pk_ras : Ras.snapshot;
}

type checkpoint = {
  ck_fq_uop : Uop.t array;
  ck_fq_mispredict : bool array;
  ck_fq_head : int;
  ck_fq_count : int;
  ck_stream_done : bool;
  ck_fetch_stall_until : int;
  ck_fetch_blocked_on_resolve : bool;
  ck_fetch_blocked_on_trap : bool;
  ck_fetch_wait_icache : bool;
  ck_fetch_wait_itlb : bool;
  ck_last_fetch_line : int;
  ck_last_fetch_page : int;
  ck_rob_uop : Uop.t array;
  ck_rob_state : int array;
  ck_rob_mispredict : bool array;
  ck_rob_dst : int array;
  ck_rob_old : int array;
  ck_rob_src : int array;
  ck_rob_lq : int array;
  ck_rob_sq : int array;
  ck_rob_head : int;
  ck_rob_tail : int;
  ck_rob_count : int;
  ck_map_table : int array;
  ck_free_list : Iring.t;
  ck_ready_at : int array;
  ck_iq : int array array;
  ck_iq_len : int array;
  ck_lq : bool array;
  ck_lq_rob : int array;
  ck_sq_line : int array;
  ck_sq_addr_ready : bool array;
  ck_sq_head : int;
  ck_sq_tail : int;
  ck_sq_count : int;
  ck_sb : bool array;
  ck_sb_lines : int array;
  ck_sb_pending : Iring.t;
  ck_dtlb_outstanding : int;
  ck_ev_code : int array;
  ck_ev_seq : int array;
  ck_ev_next : int array;
  ck_ev_head : int array;
  ck_ev_tail : int array;
  ck_ev_free : int;
  ck_ev_live : int;
  ck_ev_next_seq : int;
  ck_purge : purge_phase;
  ck_purge_kind : purge_kind;
  ck_saved_predictors : predictor_ctx option;
  ck_purge_requested : bool;
  ck_committed : int;
  ck_now : int;
  ck_predictors : predictor_ck option; (* None iff deliberately omitted *)
  ck_itlb : Tlb.checkpoint;
  ck_dtlb : Tlb.checkpoint;
  ck_l2tlb : Tlb.checkpoint;
  ck_tcache : Trans_cache.checkpoint;
  ck_ptw : Ptw.checkpoint;
  ck_last_cpi : int;
  ck_purge_started : int;
  ck_lq_issued_at : int array;
  ck_load_lat : Histogram.t;
  ck_purge_lat : Histogram.t;
}

let save ?(omit_predictors = false) t =
  {
    ck_fq_uop = Array.copy t.fq_uop;
    ck_fq_mispredict = Array.copy t.fq_mispredict;
    ck_fq_head = t.fq_head;
    ck_fq_count = t.fq_count;
    ck_stream_done = t.stream_done;
    ck_fetch_stall_until = t.fetch_stall_until;
    ck_fetch_blocked_on_resolve = t.fetch_blocked_on_resolve;
    ck_fetch_blocked_on_trap = t.fetch_blocked_on_trap;
    ck_fetch_wait_icache = t.fetch_wait_icache;
    ck_fetch_wait_itlb = t.fetch_wait_itlb;
    ck_last_fetch_line = t.last_fetch_line;
    ck_last_fetch_page = t.last_fetch_page;
    ck_rob_uop = Array.copy t.rob_uop;
    ck_rob_state = Array.copy t.rob_state;
    ck_rob_mispredict = Array.copy t.rob_mispredict;
    ck_rob_dst = Array.copy t.rob_dst;
    ck_rob_old = Array.copy t.rob_old;
    ck_rob_src = Array.copy t.rob_src;
    ck_rob_lq = Array.copy t.rob_lq;
    ck_rob_sq = Array.copy t.rob_sq;
    ck_rob_head = t.rob_head;
    ck_rob_tail = t.rob_tail;
    ck_rob_count = t.rob_count;
    ck_map_table = Array.copy t.map_table;
    ck_free_list = Iring.copy t.free_list;
    ck_ready_at = Array.copy t.ready_at;
    ck_iq = Array.map Array.copy t.iq;
    ck_iq_len = Array.copy t.iq_len;
    ck_lq = Array.copy t.lq;
    ck_lq_rob = Array.copy t.lq_rob;
    ck_sq_line = Array.copy t.sq_line;
    ck_sq_addr_ready = Array.copy t.sq_addr_ready;
    ck_sq_head = t.sq_head;
    ck_sq_tail = t.sq_tail;
    ck_sq_count = t.sq_count;
    ck_sb = Array.copy t.sb;
    ck_sb_lines = Array.copy t.sb_lines;
    ck_sb_pending = Iring.copy t.sb_pending;
    ck_dtlb_outstanding = t.dtlb_outstanding;
    ck_ev_code = Array.copy t.ev_code;
    ck_ev_seq = Array.copy t.ev_seq;
    ck_ev_next = Array.copy t.ev_next;
    ck_ev_head = Array.copy t.ev_head;
    ck_ev_tail = Array.copy t.ev_tail;
    ck_ev_free = t.ev_free;
    ck_ev_live = t.ev_live;
    ck_ev_next_seq = t.ev_next_seq;
    ck_purge = t.purge;
    ck_purge_kind = t.purge_kind;
    ck_saved_predictors = t.saved_predictors;
    ck_purge_requested = t.purge_requested;
    ck_committed = t.committed;
    ck_now = t.now;
    ck_predictors =
      (if omit_predictors then None
       else
         Some
           {
             pk_btb = Btb.snapshot t.btb;
             pk_tournament = Tournament.snapshot t.tournament;
             pk_ras = Ras.snapshot t.ras;
           });
    ck_itlb = Tlb.save t.itlb;
    ck_dtlb = Tlb.save t.dtlb;
    ck_l2tlb = Tlb.save t.l2tlb;
    ck_tcache = Trans_cache.save t.tcache;
    ck_ptw = Ptw.save t.ptw;
    ck_last_cpi = t.last_cpi;
    ck_purge_started = t.purge_started;
    ck_lq_issued_at = Array.copy t.lq_issued_at;
    ck_load_lat = Histogram.copy t.load_lat;
    ck_purge_lat = Histogram.copy t.purge_lat;
  }

let blit src dst = Array.blit src 0 dst 0 (Array.length dst)

let restore t ck =
  blit ck.ck_fq_uop t.fq_uop;
  blit ck.ck_fq_mispredict t.fq_mispredict;
  t.fq_head <- ck.ck_fq_head;
  t.fq_count <- ck.ck_fq_count;
  t.stream_done <- ck.ck_stream_done;
  t.fetch_stall_until <- ck.ck_fetch_stall_until;
  t.fetch_blocked_on_resolve <- ck.ck_fetch_blocked_on_resolve;
  t.fetch_blocked_on_trap <- ck.ck_fetch_blocked_on_trap;
  t.fetch_wait_icache <- ck.ck_fetch_wait_icache;
  t.fetch_wait_itlb <- ck.ck_fetch_wait_itlb;
  t.last_fetch_line <- ck.ck_last_fetch_line;
  t.last_fetch_page <- ck.ck_last_fetch_page;
  blit ck.ck_rob_uop t.rob_uop;
  blit ck.ck_rob_state t.rob_state;
  blit ck.ck_rob_mispredict t.rob_mispredict;
  blit ck.ck_rob_dst t.rob_dst;
  blit ck.ck_rob_old t.rob_old;
  blit ck.ck_rob_src t.rob_src;
  blit ck.ck_rob_lq t.rob_lq;
  blit ck.ck_rob_sq t.rob_sq;
  t.rob_head <- ck.ck_rob_head;
  t.rob_tail <- ck.ck_rob_tail;
  t.rob_count <- ck.ck_rob_count;
  blit ck.ck_map_table t.map_table;
  Iring.assign t.free_list ~from:ck.ck_free_list;
  blit ck.ck_ready_at t.ready_at;
  Array.iteri (fun q a -> blit a t.iq.(q)) ck.ck_iq;
  blit ck.ck_iq_len t.iq_len;
  blit ck.ck_lq t.lq;
  blit ck.ck_lq_rob t.lq_rob;
  blit ck.ck_sq_line t.sq_line;
  blit ck.ck_sq_addr_ready t.sq_addr_ready;
  t.sq_head <- ck.ck_sq_head;
  t.sq_tail <- ck.ck_sq_tail;
  t.sq_count <- ck.ck_sq_count;
  blit ck.ck_sb t.sb;
  blit ck.ck_sb_lines t.sb_lines;
  Iring.assign t.sb_pending ~from:ck.ck_sb_pending;
  t.dtlb_outstanding <- ck.ck_dtlb_outstanding;
  blit ck.ck_ev_code t.ev_code;
  blit ck.ck_ev_seq t.ev_seq;
  blit ck.ck_ev_next t.ev_next;
  blit ck.ck_ev_head t.ev_head;
  blit ck.ck_ev_tail t.ev_tail;
  t.ev_free <- ck.ck_ev_free;
  t.ev_live <- ck.ck_ev_live;
  t.ev_next_seq <- ck.ck_ev_next_seq;
  t.purge <- ck.ck_purge;
  t.purge_kind <- ck.ck_purge_kind;
  t.saved_predictors <- ck.ck_saved_predictors;
  t.purge_requested <- ck.ck_purge_requested;
  t.committed <- ck.ck_committed;
  t.now <- ck.ck_now;
  (match ck.ck_predictors with
  | Some pk ->
    Btb.restore t.btb pk.pk_btb;
    Tournament.restore t.tournament pk.pk_tournament;
    Ras.restore t.ras pk.pk_ras
  | None -> ());
  Tlb.restore t.itlb ck.ck_itlb;
  Tlb.restore t.dtlb ck.ck_dtlb;
  Tlb.restore t.l2tlb ck.ck_l2tlb;
  Trans_cache.restore t.tcache ck.ck_tcache;
  Ptw.restore t.ptw ck.ck_ptw;
  t.last_cpi <- ck.ck_last_cpi;
  t.purge_started <- ck.ck_purge_started;
  blit ck.ck_lq_issued_at t.lq_issued_at;
  Histogram.restore ~into:t.load_lat ck.ck_load_lat;
  Histogram.restore ~into:t.purge_lat ck.ck_purge_lat

(* ------------------------------------------------------------------ *)
(* Structure state (quiet-cycle detector)                              *)
(* ------------------------------------------------------------------ *)

(* The fold covers everything whose change means the cycle did work:
   fetch queue and front-end waits, ROB contents and cursors, issue
   queues, LQ/SQ/SB, pending-event times, walker slots, purge machinery,
   and the committed count.  Renaming state (map table, free list,
   ready_at), predictors, TLB/translation-cache contents and
   [lq_issued_at] are excluded: they only change in cycles that also
   move an included structure.  Events fold as their due times, newest
   first; that is sound because every retry path reschedules at a
   strictly later cycle.  Issue queues fold newest first. *)

let purge_code = function
  | Pp_none -> 0
  | Pp_quiesce -> 1
  | Pp_flush start -> 2 + start

let purge_kind_code = function Pk_enter -> 0 | Pk_exit -> 1 | Pk_external -> 2

let opt_int s v =
  Statesig.present s (v >= 0);
  if v >= 0 then Statesig.int s v

let fold_iq s t q =
  let n = t.iq_len.(q) in
  Statesig.init s n (fun s k -> Statesig.int s t.iq.(q).(n - 1 - k))

(* Pending events' due times, newest first: each step picks the
   largest sequence number below the last one folded.  Between ticks the
   bucket of [t.now] is empty, so bucket [b] is due at the next cycle
   after [t.now] congruent to [b]. *)
let fold_events s t =
  let last = ref max_int in
  Statesig.init s t.ev_live (fun s _ ->
      let best = ref (-1) and due = ref 0 in
      for b = 0 to wheel_size - 1 do
        let i = ref t.ev_head.(b) in
        while !i >= 0 do
          let seq = t.ev_seq.(!i) in
          if seq < !last && seq > !best then begin
            best := seq;
            due := t.now + ((b - t.now) land wheel_mask)
          end;
          i := t.ev_next.(!i)
        done
      done;
      last := !best;
      Statesig.int s !due)

let fold_state s t =
  let open Statesig in
  field s "fq";
  init s t.fq_count (fun s k ->
      let i = (t.fq_head + k) mod fetch_queue_depth in
      int s (Hashtbl.hash t.fq_uop.(i));
      bool s t.fq_mispredict.(i));
  field s "sd"; bool s t.stream_done;
  field s "fsu"; int s t.fetch_stall_until;
  field s "fbr"; bool s t.fetch_blocked_on_resolve;
  field s "fbt"; bool s t.fetch_blocked_on_trap;
  field s "fwi"; bool s t.fetch_wait_icache;
  field s "fwt"; bool s t.fetch_wait_itlb;
  field s "lfl"; int s t.last_fetch_line;
  field s "lfp"; int s t.last_fetch_page;
  field s "rob"; int s t.rob_head; int s t.rob_tail; int s t.rob_count;
  init s (rob_size t) (fun s i ->
      let live = rob_live t i in
      present s live;
      if live then begin
        field s "u"; int s (Hashtbl.hash t.rob_uop.(i));
        field s "d"; opt_int s t.rob_dst.(i);
        field s "o"; opt_int s t.rob_old.(i);
        field s "src";
        let nsrc = if t.rob_src.(2 * i) < 0 then 0
          else if t.rob_src.((2 * i) + 1) < 0 then 1 else 2 in
        ints s t.rob_src ~pos:(2 * i) ~len:nsrc;
        field s "lq"; opt_int s t.rob_lq.(i);
        field s "sq"; opt_int s t.rob_sq.(i);
        field s "st"; int s t.rob_state.(i);
        field s "m"; bool s t.rob_mispredict.(i)
      end);
  field s "iq";
  init s t.cfg.Core_config.alu_pipes (fun s q -> fold_iq s t q);
  fold_iq s t (mem_queue t);
  fold_iq s t (fp_queue t);
  field s "lq"; array s bool t.lq;
  field s "sq"; int s t.sq_head; int s t.sq_tail; int s t.sq_count;
  init s (Array.length t.sq_line) (fun s i ->
      let line = t.sq_line.(i) in
      present s (line >= 0);
      if line >= 0 then begin
        int s line;
        bool s t.sq_addr_ready.(i)
      end);
  (* A free slot's line is stale: fold it only while the slot is busy. *)
  field s "sb";
  Array.iteri
    (fun k busy ->
      present s busy;
      if busy then int s t.sb_lines.(k))
    t.sb;
  field s "sbp";
  init s (Iring.length t.sb_pending) (fun s k -> int s (Iring.get t.sb_pending k));
  field s "dtlb"; int s t.dtlb_outstanding;
  field s "ev"; fold_events s t;
  field s "pg"; int s (purge_code t.purge);
  field s "pk"; int s (purge_kind_code t.purge_kind);
  field s "sp"; bool s (t.saved_predictors <> None);
  field s "pr"; bool s t.purge_requested;
  field s "com"; int s t.committed;
  field s "ps"; int s t.purge_started;
  field s "ptw"; Ptw.fold_state s t.ptw
