let sb_tag = 1 lsl 41
let never = max_int

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type rob_state = Rs_waiting | Rs_issued | Rs_done

type rob_entry = {
  u : Uop.t;
  dst_phys : int option;
  old_phys : int option; (* previous mapping of the dst, freed at commit *)
  src_phys : int list;
  lq_slot : int option;
  sq_slot : int option;
  mutable state : rob_state;
  mutable mispredict : bool;
}

type sq_entry = { sq_line : int; mutable sq_addr_ready : bool }

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
  fetch_q : rob_ref Fifo.t;
  mutable stream_done : bool;
  mutable fetch_stall_until : int;
  mutable fetch_blocked_on_resolve : bool;
  mutable fetch_blocked_on_trap : bool;
  mutable fetch_wait_icache : bool;
  mutable fetch_wait_itlb : bool;
  mutable last_fetch_line : int;
  mutable last_fetch_page : int;
  (* Rename / backend *)
  rob : rob_entry option array;
  mutable rob_head : int;
  mutable rob_tail : int;
  mutable rob_count : int;
  map_table : int array; (* logical -> phys *)
  free_list : int Queue.t;
  ready_at : int array; (* per phys reg *)
  iq_alu : int list ref array; (* rob indices, oldest first (reversed store) *)
  iq_mem : int list ref;
  iq_fp : int list ref;
  lq : bool array; (* slot busy *)
  sq : sq_entry option array;
  mutable sq_head : int;
  mutable sq_tail : int;
  mutable sq_count : int;
  sb : bool array; (* store buffer slots busy *)
  sb_lines : int array; (* line held by each store-buffer slot *)
  sb_pending : int Queue.t; (* sb slots waiting to drain *)
  mutable dtlb_outstanding : int;
  events : (int * (unit -> unit)) list ref; (* deferred continuations *)
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

and rob_ref = { pre_uop : Uop.t; pre_mispredict : bool }

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

let create ?(trace = Trace.null) ?(selfprof = Selfprof.null) ?(id = 0) cfg
    ~l1i ~l1d ~stream ~stats ~pt_base_line =
  let tcache = Trans_cache.create ~entries_per_level:24 ~levels:2 in
  let free_list = Queue.create () in
  for p = 32 to cfg.Core_config.phys_regs - 1 do
    Queue.add p free_list
  done;
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
    fetch_q = Fifo.create ~capacity:16;
    stream_done = false;
    fetch_stall_until = 0;
    fetch_blocked_on_resolve = false;
    fetch_blocked_on_trap = false;
    fetch_wait_icache = false;
    fetch_wait_itlb = false;
    last_fetch_line = -1;
    last_fetch_page = -1;
    rob = Array.make cfg.Core_config.rob_entries None;
    rob_head = 0;
    rob_tail = 0;
    rob_count = 0;
    map_table = Array.init 32 (fun i -> i);
    free_list;
    ready_at = Array.make cfg.Core_config.phys_regs 0;
    iq_alu = Array.init cfg.Core_config.alu_pipes (fun _ -> ref []);
    iq_mem = ref [];
    iq_fp = ref [];
    lq = Array.make cfg.Core_config.lq_entries false;
    sq = Array.make cfg.Core_config.sq_entries None;
    sq_head = 0;
    sq_tail = 0;
    sq_count = 0;
    sb = Array.make cfg.Core_config.sb_entries false;
    sb_lines = Array.make cfg.Core_config.sb_entries 0;
    sb_pending = Queue.create ();
    dtlb_outstanding = 0;
    events = ref [];
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
    lq_issued_at = Array.make cfg.Core_config.lq_entries 0;
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
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let after t delay k = t.events := (t.now + delay, k) :: !(t.events)

let run_events t =
  let due, rest = List.partition (fun (at, _) -> at <= t.now) !(t.events) in
  t.events := rest;
  (* Oldest first for determinism. *)
  List.iter (fun (_, k) -> k ()) (List.rev due)

(* ------------------------------------------------------------------ *)
(* Translation (D-side)                                                *)
(* ------------------------------------------------------------------ *)

(* Attempt to begin translation; [k] fires when the translation is
   available.  Returns false when the DTLB cannot take another miss this
   cycle (caller retries next cycle). *)
let translate_d t ~addr ~k =
  let vpage = addr / 4096 in
  if Tlb.lookup t.dtlb ~vpage then begin
    k ();
    true
  end
  else if t.dtlb_outstanding >= t.cfg.Core_config.dtlb_misses then false
  else begin
    Stats.bump t.ctr.k_dtlb_misses;
    t.dtlb_outstanding <- t.dtlb_outstanding + 1;
    after t t.cfg.Core_config.l2tlb_latency (fun () ->
        if Tlb.lookup t.l2tlb ~vpage then begin
          Tlb.insert t.dtlb ~vpage;
          t.dtlb_outstanding <- t.dtlb_outstanding - 1;
          k ()
        end
        else begin
          Stats.bump t.ctr.k_l2tlb_misses;
          (* Hardware walk; waits for a walker slot if both are busy. *)
          let rec start_walk () =
            if Ptw.can_start t.ptw then
              Ptw.start t.ptw ~vpage ~on_done:(fun ~reads:_ ->
                  Tlb.insert t.l2tlb ~vpage;
                  Tlb.insert t.dtlb ~vpage;
                  t.dtlb_outstanding <- t.dtlb_outstanding - 1;
                  k ())
            else after t 1 start_walk
          in
          start_walk ()
        end);
    true
  end

(* ------------------------------------------------------------------ *)
(* ROB helpers                                                         *)
(* ------------------------------------------------------------------ *)

let rob_entry t idx =
  match t.rob.(idx) with
  | Some e -> e
  | None -> failwith "Core: dangling ROB index"

let rob_full t = t.rob_count = Array.length t.rob
let rob_empty t = t.rob_count = 0

let srcs_ready t e = List.for_all (fun p -> t.ready_at.(p) <= t.now) e.src_phys

let mark_done t idx =
  let e = rob_entry t idx in
  e.state <- Rs_done;
  match e.dst_phys with
  | Some p -> t.ready_at.(p) <- min t.ready_at.(p) t.now
  | None -> ()

let set_dst_ready_at t e at =
  match e.dst_phys with
  | Some p -> t.ready_at.(p) <- at
  | None -> ()

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
      after t t.cfg.Core_config.l2tlb_latency (fun () ->
          if Tlb.lookup t.l2tlb ~vpage:page then begin
            Tlb.insert t.itlb ~vpage:page;
            t.fetch_wait_itlb <- false
          end
          else begin
            let rec start_walk () =
              if Ptw.can_start t.ptw then
                Ptw.start t.ptw ~vpage:page ~on_done:(fun ~reads:_ ->
                    Tlb.insert t.l2tlb ~vpage:page;
                    Tlb.insert t.itlb ~vpage:page;
                    t.fetch_wait_itlb <- false)
              else after t 1 start_walk
            in
            start_walk ()
          end);
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
    let btb_target = Btb.predict t.btb ~pc:u.Uop.pc in
    Tournament.update t.tournament ~pc:u.Uop.pc ~taken;
    if taken then Btb.update t.btb ~pc:u.Uop.pc ~target;
    if pred_dir <> taken || (taken && btb_target <> Some target) then begin
      Stats.bump t.ctr.k_mispredicts;
      F_stall_until_resolve
    end
    else F_ok
  | Uop.Jump { target; kind } -> (
    match kind with
    | `Plain | `Call ->
      if kind = `Call then Ras.push t.ras (u.Uop.pc + 4);
      let hit = Btb.predict t.btb ~pc:u.Uop.pc = Some target in
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
    while !budget > 0 && (not !stop) && Fifo.can_enq t.fetch_q do
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
        Fifo.enq t.fetch_q { pre_uop = u; pre_mispredict = !mispredicted };
        if not mem_ok then stop := true else decr budget
    done
  end

(* ------------------------------------------------------------------ *)
(* Rename / dispatch                                                   *)
(* ------------------------------------------------------------------ *)

let alloc_lq t =
  let rec go i =
    if i >= Array.length t.lq then None
    else if not t.lq.(i) then Some i
    else go (i + 1)
  in
  go 0

let dispatch_iq t idx (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Load _ | Uop.Store _ -> t.iq_mem := idx :: !(t.iq_mem)
  | Uop.Alu { pipe = Uop.Pipe_fp; _ } -> t.iq_fp := idx :: !(t.iq_fp)
  | Uop.Alu _ | Uop.Branch _ | Uop.Jump _ ->
    (* Pick the shorter ALU issue queue. *)
    let best = ref 0 in
    Array.iteri
      (fun i q ->
        if List.length !q < List.length !(t.iq_alu.(!best)) then best := i
        else ignore q)
      t.iq_alu;
    let q = t.iq_alu.(!best) in
    q := idx :: !q
  | Uop.Enter_kernel | Uop.Exit_kernel -> ()

let iq_len q = List.length !q

let iq_has_room t (u : Uop.t) =
  let cap = t.cfg.Core_config.iq_entries in
  match u.Uop.kind with
  | Uop.Load _ | Uop.Store _ -> iq_len t.iq_mem < cap
  | Uop.Alu { pipe = Uop.Pipe_fp; _ } -> iq_len t.iq_fp < cap
  | Uop.Alu _ | Uop.Branch _ | Uop.Jump _ ->
    Array.exists (fun q -> iq_len q < cap) t.iq_alu
  | Uop.Enter_kernel | Uop.Exit_kernel -> true

let rename_stage t =
  let budget = ref t.cfg.Core_config.fetch_width in
  let stop = ref false in
  while !budget > 0 && (not !stop) && Fifo.can_deq t.fetch_q do
    let { pre_uop = u; pre_mispredict } = Fifo.peek t.fetch_q in
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
    let needs_dst = u.Uop.dst <> None in
    let sq_needed = match u.Uop.kind with Uop.Store _ -> true | _ -> false in
    let lq_needed = match u.Uop.kind with Uop.Load _ -> true | _ -> false in
    if
      rob_full t || nonspec_block || marker_block
      || (needs_dst && Queue.is_empty t.free_list)
      || (not (iq_has_room t u))
      || (sq_needed && t.sq_count = Array.length t.sq)
      || (lq_needed && alloc_lq t = None)
    then stop := true
    else begin
      ignore (Fifo.deq t.fetch_q);
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
        let src_phys = List.map (fun r -> t.map_table.(r)) u.Uop.srcs in
        let dst_phys, old_phys =
          match u.Uop.dst with
          | None -> (None, None)
          | Some d ->
            let p = Queue.pop t.free_list in
            let old = t.map_table.(d) in
            t.map_table.(d) <- p;
            t.ready_at.(p) <- never;
            (Some p, Some old)
        in
        let lq_slot =
          if lq_needed then begin
            match alloc_lq t with
            | Some s ->
              t.lq.(s) <- true;
              Some s
            | None -> assert false
          end
          else None
        in
        let sq_slot =
          if sq_needed then begin
            let s = t.sq_tail in
            t.sq_tail <- (t.sq_tail + 1) mod Array.length t.sq;
            t.sq_count <- t.sq_count + 1;
            (match u.Uop.kind with
            | Uop.Store { addr } ->
              t.sq.(s) <- Some { sq_line = addr lsr 6; sq_addr_ready = false }
            | _ -> assert false);
            Some s
          end
          else None
        in
        let idx = t.rob_tail in
        t.rob.(idx) <-
          Some
            {
              u;
              dst_phys;
              old_phys;
              src_phys;
              lq_slot;
              sq_slot;
              state = Rs_waiting;
              mispredict = pre_mispredict;
            };
        t.rob_tail <- (t.rob_tail + 1) mod Array.length t.rob;
        t.rob_count <- t.rob_count + 1;
        dispatch_iq t idx u
      end;
      decr budget
    end
  done

(* ------------------------------------------------------------------ *)
(* Issue / execute                                                     *)
(* ------------------------------------------------------------------ *)

(* Oldest-first scan: queues store newest-first, so scan the reverse. *)
let pick_ready t q =
  let rec go = function
    | [] -> None
    | idx :: rest ->
      let e = rob_entry t idx in
      if e.state = Rs_waiting && srcs_ready t e then Some idx else go rest
  in
  go (List.rev !q)

let remove_from q idx = q := List.filter (fun i -> i <> idx) !q

(* Store-to-load forwarding: an older SQ entry with a ready address on the
   same line forwards, as does a store-buffer entry that has retired but
   not yet drained to the D-cache.  (Timing model: unknown older store
   addresses do not block the load — RiscyOO issues loads
   speculatively.) *)
let forwardable t line =
  let found = ref false in
  Array.iter
    (fun slot ->
      match slot with
      | Some s when s.sq_addr_ready && s.sq_line = line -> found := true
      | _ -> ())
    t.sq;
  Array.iteri
    (fun i busy -> if busy && t.sb_lines.(i) = line then found := true)
    t.sb;
  !found

let issue_alu_like t idx =
  let e = rob_entry t idx in
  e.state <- Rs_issued;
  let latency =
    match e.u.Uop.kind with
    | Uop.Alu { latency; _ } -> latency
    | Uop.Branch _ | Uop.Jump _ -> 1
    | _ -> assert false
  in
  set_dst_ready_at t e (t.now + latency);
  after t latency (fun () ->
      e.state <- Rs_done;
      (* Control resolution restarts a stalled front end. *)
      match e.u.Uop.kind with
      | Uop.Branch _ | Uop.Jump _ ->
        if e.mispredict then begin
          e.mispredict <- false;
          t.fetch_blocked_on_resolve <- false;
          t.fetch_stall_until <-
            max t.fetch_stall_until
              (t.now + t.cfg.Core_config.redirect_penalty)
        end
      | _ -> ())

let issue_mem t idx =
  let e = rob_entry t idx in
  e.state <- Rs_issued;
  match e.u.Uop.kind with
  | Uop.Store { addr } ->
    (* Address generation + translation; the store "executes" when its
       address is translated and entered into the SQ. *)
    let k () =
      after t 1 (fun () ->
          (match e.sq_slot with
          | Some s -> (
            match t.sq.(s) with
            | Some sq -> sq.sq_addr_ready <- true
            | None -> assert false)
          | None -> assert false);
          e.state <- Rs_done)
    in
    if not (translate_d t ~addr ~k) then e.state <- Rs_waiting (* retry *)
  | Uop.Load { addr } ->
    (match e.lq_slot with
    | Some s -> t.lq_issued_at.(s) <- t.now
    | None -> ());
    let line = addr lsr 6 in
    let k () =
      if forwardable t line then begin
        Stats.bump t.ctr.k_store_forwards;
        after t 1 (fun () -> mark_done t idx)
      end
      else begin
        let lq_slot = match e.lq_slot with Some s -> s | None -> assert false in
        let rec try_cache () =
          if L1.can_accept t.l1d then
            L1.request t.l1d ~line ~store:false ~id:lq_slot
          else after t 1 try_cache
        in
        try_cache ()
      end
    in
    if not (translate_d t ~addr ~k) then e.state <- Rs_waiting
  | _ -> assert false

let issue_stage t =
  Array.iter
    (fun q ->
      match pick_ready t q with
      | Some idx ->
        remove_from q idx;
        issue_alu_like t idx
      | None -> ())
    t.iq_alu;
  (match pick_ready t t.iq_fp with
  | Some idx ->
    remove_from t.iq_fp idx;
    issue_alu_like t idx
  | None -> ());
  match pick_ready t t.iq_mem with
  | Some idx -> (
    issue_mem t idx;
    (* Leave in the queue on a DTLB-port stall (state reverted). *)
    let e = rob_entry t idx in
    match e.state with
    | Rs_waiting -> ()
    | _ -> remove_from t.iq_mem idx)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)
(* ------------------------------------------------------------------ *)

let alloc_sb t =
  let rec go i =
    if i >= Array.length t.sb then None
    else if not t.sb.(i) then Some i
    else go (i + 1)
  in
  go 0

let sb_stage t =
  match Queue.peek_opt t.sb_pending with
  | Some slot ->
    if L1.can_accept t.l1d then begin
      ignore (Queue.pop t.sb_pending);
      L1.request t.l1d ~line:t.sb_lines.(slot) ~store:true ~id:(sb_tag lor slot)
    end
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let commit_stage t =
  let budget = ref t.cfg.Core_config.commit_width in
  let stop = ref false in
  while !budget > 0 && (not !stop) && not (rob_empty t) do
    match t.rob.(t.rob_head) with
    | None -> assert false
    | Some e ->
      if e.state <> Rs_done then stop := true
      else begin
        let can_retire =
          match e.u.Uop.kind with
          | Uop.Store _ -> (
            (* Needs a store-buffer slot; the SB drains in background. *)
            match alloc_sb t with
            | Some slot ->
              t.sb.(slot) <- true;
              (match e.sq_slot with
              | Some s -> (
                match t.sq.(s) with
                | Some sq -> t.sb_lines.(slot) <- sq.sq_line
                | None -> assert false)
              | None -> assert false);
              Queue.add slot t.sb_pending;
              true
            | None ->
              Stats.bump t.ctr.k_sb_full_stalls;
              false)
          | _ -> true
        in
        if not can_retire then stop := true
        else begin
          (match e.old_phys with
          | Some p -> Queue.add p t.free_list
          | None -> ());
          (match e.lq_slot with Some s -> t.lq.(s) <- false | None -> ());
          (match e.sq_slot with
          | Some s ->
            t.sq.(s) <- None;
            t.sq_head <- (t.sq_head + 1) mod Array.length t.sq;
            t.sq_count <- t.sq_count - 1
          | None -> ());
          t.rob.(t.rob_head) <- None;
          t.rob_head <- (t.rob_head + 1) mod Array.length t.rob;
          t.rob_count <- t.rob_count - 1;
          t.committed <- t.committed + 1;
          t.on_commit e.u;
          decr budget
        end
      end
  done

(* ------------------------------------------------------------------ *)
(* Purge state machine (Section 6 / 7.1)                               *)
(* ------------------------------------------------------------------ *)

let backend_quiescent t =
  rob_empty t
  && Queue.is_empty t.sb_pending
  && Array.for_all not t.sb
  && L1.in_flight t.l1d = 0
  && L1.in_flight t.l1i = 0
  && Ptw.active_walks t.ptw = 0
  && t.dtlb_outstanding = 0
  && !(t.events) = []

let debug_quiescence t =
  Printf.sprintf
    "rob=%d sbp=%d sb=%b l1d=%d l1i=%d ptw=%d dtlb=%d events=%d wait_ic=%b wait_it=%b"
    t.rob_count (Queue.length t.sb_pending)
    (Array.exists (fun x -> x) t.sb)
    (L1.in_flight t.l1d) (L1.in_flight t.l1i) (Ptw.active_walks t.ptw)
    t.dtlb_outstanding (List.length !(t.events)) t.fetch_wait_icache
    t.fetch_wait_itlb

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
      let e = rob_entry t t.rob_head in
      match e.u.Uop.kind with
      | (Uop.Load _ | Uop.Store _) when e.state <> Rs_done ->
        if t.dtlb_outstanding > 0 || Ptw.active_walks t.ptw > 0 then
          4 (* tlb_walk *)
        else begin
          match (e.u.Uop.kind, e.lq_slot, e.state) with
          | Uop.Load _, Some s, Rs_issued ->
            if t.now - t.lq_issued_at.(s) > t.cfg.Core_config.llc_roundtrip_hint
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
  if id land Ptw.id_tag <> 0 then Ptw.mem_response ~now t.ptw ~id
  else if id land sb_tag <> 0 then t.sb.(id land lnot sb_tag) <- false
  else begin
    (* Load completion: find the ROB entry owning this LQ slot. *)
    let found = ref false in
    Array.iteri
      (fun i entry ->
        match entry with
        | Some e when (not !found) && e.lq_slot = Some id && e.state = Rs_issued
          ->
          found := true;
          ignore i;
          e.state <- Rs_done;
          Histogram.add t.load_lat (now - t.lq_issued_at.(id));
          set_dst_ready_at t e now
        | _ -> ())
      t.rob;
    if not !found then failwith "Core.mem_complete: orphan load completion"
  end

let icache_complete t ~id =
  (* id 1 completions are prefetches; only the demand line unblocks
     fetch. *)
  if id = 0 then t.fetch_wait_icache <- false

let finished t =
  t.stream_done && rob_empty t && Fifo.is_empty t.fetch_q
  && backend_quiescent t && t.purge = Pp_none
  && not t.purge_requested

(* ------------------------------------------------------------------ *)
(* Occupancy probes                                                    *)
(* ------------------------------------------------------------------ *)

let rob_occupancy t = t.rob_count

let iq_occupancy t =
  Array.fold_left
    (fun n q -> n + List.length !q)
    (List.length !(t.iq_mem) + List.length !(t.iq_fp))
    t.iq_alu

let count_busy a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a
let lq_occupancy t = count_busy t.lq
let sq_occupancy t = t.sq_count
let sb_occupancy t = count_busy t.sb

(* In-flight (renamed, not yet retired) µops oldest-first, with the ROB
   state of each; causal-slice reports render these. *)
let in_flight_uops t =
  let n = Array.length t.rob in
  let rec go i cnt acc =
    if cnt = 0 then List.rev acc
    else
      match t.rob.(i) with
      | Some e ->
        let st =
          match e.state with
          | Rs_waiting -> "waiting"
          | Rs_issued -> "issued"
          | Rs_done -> "done"
        in
        go ((i + 1) mod n) (cnt - 1) ((e.u, st) :: acc)
      | None -> go ((i + 1) mod n) cnt acc
  in
  go t.rob_head t.rob_count []

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                                *)
(* ------------------------------------------------------------------ *)

(* Deferred-event closures and walker continuations capture the
   ROB-entry and SQ-entry records themselves, so the checkpoint keeps
   those records (not copies) together with the values of their mutable
   fields, and [restore] writes the fields back in place.  A checkpoint
   is therefore only valid on the [t] it was saved from.  The µop
   stream, L1s, stats and trace are owned by the machine, which
   checkpoints them alongside.  [on_commit] is a harness probe, not
   machine state, and is left untouched. *)

type rob_ck = {
  rk_entry : rob_entry;
  rk_state : rob_state;
  rk_mispredict : bool;
}

type sq_ck = { qk_entry : sq_entry; qk_addr_ready : bool }

type predictor_ck = {
  pk_btb : Btb.snapshot;
  pk_tournament : Tournament.snapshot;
  pk_ras : Ras.snapshot;
}

type checkpoint = {
  ck_fetch_q : rob_ref list;
  ck_stream_done : bool;
  ck_fetch_stall_until : int;
  ck_fetch_blocked_on_resolve : bool;
  ck_fetch_blocked_on_trap : bool;
  ck_fetch_wait_icache : bool;
  ck_fetch_wait_itlb : bool;
  ck_last_fetch_line : int;
  ck_last_fetch_page : int;
  ck_rob : rob_ck option array;
  ck_rob_head : int;
  ck_rob_tail : int;
  ck_rob_count : int;
  ck_map_table : int array;
  ck_free_list : int list;
  ck_ready_at : int array;
  ck_iq_alu : int list array;
  ck_iq_mem : int list;
  ck_iq_fp : int list;
  ck_lq : bool array;
  ck_sq : sq_ck option array;
  ck_sq_head : int;
  ck_sq_tail : int;
  ck_sq_count : int;
  ck_sb : bool array;
  ck_sb_lines : int array;
  ck_sb_pending : int list;
  ck_dtlb_outstanding : int;
  ck_events : (int * (unit -> unit)) list;
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
    ck_fetch_q = Fifo.to_list t.fetch_q;
    ck_stream_done = t.stream_done;
    ck_fetch_stall_until = t.fetch_stall_until;
    ck_fetch_blocked_on_resolve = t.fetch_blocked_on_resolve;
    ck_fetch_blocked_on_trap = t.fetch_blocked_on_trap;
    ck_fetch_wait_icache = t.fetch_wait_icache;
    ck_fetch_wait_itlb = t.fetch_wait_itlb;
    ck_last_fetch_line = t.last_fetch_line;
    ck_last_fetch_page = t.last_fetch_page;
    ck_rob =
      Array.map
        (Option.map (fun e ->
             { rk_entry = e; rk_state = e.state; rk_mispredict = e.mispredict }))
        t.rob;
    ck_rob_head = t.rob_head;
    ck_rob_tail = t.rob_tail;
    ck_rob_count = t.rob_count;
    ck_map_table = Array.copy t.map_table;
    ck_free_list = List.of_seq (Queue.to_seq t.free_list);
    ck_ready_at = Array.copy t.ready_at;
    ck_iq_alu = Array.map (fun q -> !q) t.iq_alu;
    ck_iq_mem = !(t.iq_mem);
    ck_iq_fp = !(t.iq_fp);
    ck_lq = Array.copy t.lq;
    ck_sq =
      Array.map
        (Option.map (fun s -> { qk_entry = s; qk_addr_ready = s.sq_addr_ready }))
        t.sq;
    ck_sq_head = t.sq_head;
    ck_sq_tail = t.sq_tail;
    ck_sq_count = t.sq_count;
    ck_sb = Array.copy t.sb;
    ck_sb_lines = Array.copy t.sb_lines;
    ck_sb_pending = List.of_seq (Queue.to_seq t.sb_pending);
    ck_dtlb_outstanding = t.dtlb_outstanding;
    ck_events = !(t.events);
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

let restore t ck =
  Fifo.assign t.fetch_q ck.ck_fetch_q;
  t.stream_done <- ck.ck_stream_done;
  t.fetch_stall_until <- ck.ck_fetch_stall_until;
  t.fetch_blocked_on_resolve <- ck.ck_fetch_blocked_on_resolve;
  t.fetch_blocked_on_trap <- ck.ck_fetch_blocked_on_trap;
  t.fetch_wait_icache <- ck.ck_fetch_wait_icache;
  t.fetch_wait_itlb <- ck.ck_fetch_wait_itlb;
  t.last_fetch_line <- ck.ck_last_fetch_line;
  t.last_fetch_page <- ck.ck_last_fetch_page;
  Array.iteri
    (fun i slot ->
      t.rob.(i) <-
        Option.map
          (fun rk ->
            rk.rk_entry.state <- rk.rk_state;
            rk.rk_entry.mispredict <- rk.rk_mispredict;
            rk.rk_entry)
          slot)
    ck.ck_rob;
  t.rob_head <- ck.ck_rob_head;
  t.rob_tail <- ck.ck_rob_tail;
  t.rob_count <- ck.ck_rob_count;
  Array.blit ck.ck_map_table 0 t.map_table 0 (Array.length t.map_table);
  Queue.clear t.free_list;
  List.iter (fun p -> Queue.add p t.free_list) ck.ck_free_list;
  Array.blit ck.ck_ready_at 0 t.ready_at 0 (Array.length t.ready_at);
  Array.iteri (fun i q -> t.iq_alu.(i) := q) ck.ck_iq_alu;
  t.iq_mem := ck.ck_iq_mem;
  t.iq_fp := ck.ck_iq_fp;
  Array.blit ck.ck_lq 0 t.lq 0 (Array.length t.lq);
  Array.iteri
    (fun i slot ->
      t.sq.(i) <-
        Option.map
          (fun qk ->
            qk.qk_entry.sq_addr_ready <- qk.qk_addr_ready;
            qk.qk_entry)
          slot)
    ck.ck_sq;
  t.sq_head <- ck.ck_sq_head;
  t.sq_tail <- ck.ck_sq_tail;
  t.sq_count <- ck.ck_sq_count;
  Array.blit ck.ck_sb 0 t.sb 0 (Array.length t.sb);
  Array.blit ck.ck_sb_lines 0 t.sb_lines 0 (Array.length t.sb_lines);
  Queue.clear t.sb_pending;
  List.iter (fun s -> Queue.add s t.sb_pending) ck.ck_sb_pending;
  t.dtlb_outstanding <- ck.ck_dtlb_outstanding;
  t.events := ck.ck_events;
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
  Array.blit ck.ck_lq_issued_at 0 t.lq_issued_at 0
    (Array.length t.lq_issued_at);
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
   move an included structure.  Event closures cannot be hashed — their
   scheduled times are folded instead, which is sound because every
   retry path reschedules at a strictly later cycle. *)

let rob_state_code = function Rs_waiting -> 0 | Rs_issued -> 1 | Rs_done -> 2

let purge_code = function
  | Pp_none -> 0
  | Pp_quiesce -> 1
  | Pp_flush start -> 2 + start

let purge_kind_code = function Pk_enter -> 0 | Pk_exit -> 1 | Pk_external -> 2

let fold_state s t =
  let open Statesig in
  field s "fq";
  fifo s
    (fun s r ->
      int s (Hashtbl.hash r.pre_uop);
      bool s r.pre_mispredict)
    t.fetch_q;
  field s "sd"; bool s t.stream_done;
  field s "fsu"; int s t.fetch_stall_until;
  field s "fbr"; bool s t.fetch_blocked_on_resolve;
  field s "fbt"; bool s t.fetch_blocked_on_trap;
  field s "fwi"; bool s t.fetch_wait_icache;
  field s "fwt"; bool s t.fetch_wait_itlb;
  field s "lfl"; int s t.last_fetch_line;
  field s "lfp"; int s t.last_fetch_page;
  field s "rob"; int s t.rob_head; int s t.rob_tail; int s t.rob_count;
  array s
    (fun s e ->
      opt s
        (fun s e ->
          field s "u"; int s (Hashtbl.hash e.u);
          field s "d"; opt s int e.dst_phys;
          field s "o"; opt s int e.old_phys;
          field s "src"; list s int e.src_phys;
          field s "lq"; opt s int e.lq_slot;
          field s "sq"; opt s int e.sq_slot;
          field s "st"; int s (rob_state_code e.state);
          field s "m"; bool s e.mispredict)
        e)
    t.rob;
  field s "iq"; array s (fun s q -> list s int !q) t.iq_alu;
  list s int !(t.iq_mem);
  list s int !(t.iq_fp);
  field s "lq"; array s bool t.lq;
  field s "sq"; int s t.sq_head; int s t.sq_tail; int s t.sq_count;
  array s
    (fun s e ->
      opt s
        (fun s e ->
          int s e.sq_line;
          bool s e.sq_addr_ready)
        e)
    t.sq;
  (* A free slot's line is stale: fold it only while the slot is busy. *)
  field s "sb";
  Array.iteri
    (fun k busy -> opt s int (if busy then Some t.sb_lines.(k) else None))
    t.sb;
  field s "sbp"; queue s int t.sb_pending;
  field s "dtlb"; int s t.dtlb_outstanding;
  field s "ev"; list s (fun s (at, _) -> int s at) !(t.events);
  field s "pg"; int s (purge_code t.purge);
  field s "pk"; int s (purge_kind_code t.purge_kind);
  field s "sp"; bool s (t.saved_predictors <> None);
  field s "pr"; bool s t.purge_requested;
  field s "com"; int s t.committed;
  field s "ps"; int s t.purge_started;
  field s "ptw"; Ptw.fold_state s t.ptw
