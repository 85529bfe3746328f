type config = {
  sets : int;
  ways : int;
  mshrs : int;
  hit_latency : int;
  seed : int;
  prefetch_next_line : bool;
}

let default_config =
  { sets = 64; ways = 8; mshrs = 8; hit_latency = 2; seed = 0x11;
    prefetch_next_line = false }

type line_meta = { state : Msi.t }

type mshr = {
  m_line : int;
  m_to : Msi.t;
  m_way : int; (* reserved way for the fill *)
  m_set : int;
  m_born : int; (* alloc cycle, for the miss-latency histogram *)
  mutable m_waiters : int list; (* request ids, completion order *)
}

(* Depth of the request input queue. *)
let input_depth = 4

type t = {
  cfg : config;
  array : line_meta Sram.t;
  repl : Replacement.t;
  link : Link.t;
  c_accesses : Stats.counter;
  c_hits : Stats.counter;
  c_misses : Stats.counter;
  c_writebacks : Stats.counter;
  c_evictions : Stats.counter;
  c_prefetches : Stats.counter;
  c_mshr_merges : Stats.counter;
  c_mshr_full_stalls : Stats.counter;
  trace : Trace.t;
  miss_lat : Histogram.t; (* demand-miss request-to-fill latency *)
  name : string;
  (* Input queue and pending completions as parallel int rings, so a
     hit allocates nothing. *)
  in_line : Iring.t;
  in_store : Iring.t; (* 1 = store *)
  in_id : Iring.t;
  mshrs : mshr option array;
  comp_id : Iring.t;
  comp_ready : Iring.t;
  mutable flushing : bool;
  mutable flush_cursor : int; (* line index being flushed: set * ways + way *)
}

let create ?(trace = Trace.null) cfg ~link ~stats ~name =
  let counter suffix = Stats.counter stats (name ^ "." ^ suffix) in
  {
    cfg;
    array = Sram.create ~sets:cfg.sets ~ways:cfg.ways;
    repl = Replacement.pseudo_random ~ways:cfg.ways ~sets:cfg.sets ~seed:cfg.seed;
    link;
    c_accesses = counter "accesses";
    c_hits = counter "hits";
    c_misses = counter "misses";
    c_writebacks = counter "writebacks";
    c_evictions = counter "evictions";
    c_prefetches = counter "prefetches";
    c_mshr_merges = counter "mshr_merges";
    c_mshr_full_stalls = counter "mshr_full_stalls";
    trace;
    miss_lat = Histogram.create ();
    name;
    in_line = Iring.create ~capacity:input_depth;
    in_store = Iring.create ~capacity:input_depth;
    in_id = Iring.create ~capacity:input_depth;
    mshrs = Array.make cfg.mshrs None;
    comp_id = Iring.create ~capacity:16;
    comp_ready = Iring.create ~capacity:16;
    flushing = false;
    flush_cursor = 0;
  }

let config t = t.cfg
let can_accept t = Iring.length t.in_id < input_depth && not t.flushing

let request t ~line ~store ~id =
  if not (can_accept t) then failwith "L1.request: not ready";
  Stats.bump t.c_accesses;
  Iring.push t.in_line line;
  Iring.push t.in_store (Bool.to_int store);
  Iring.push t.in_id id

let complete_at t id ready =
  Iring.push t.comp_id id;
  Iring.push t.comp_ready ready

(* L1s always use the flat (low-bits) index; sets is a power of two. *)
let set_of t line = line land (t.cfg.sets - 1)

let free_mshr t =
  let rec go i =
    if i >= Array.length t.mshrs then None
    else match t.mshrs.(i) with None -> Some i | Some _ -> go (i + 1)
  in
  go 0

let find_mshr t line =
  let rec go i =
    if i >= Array.length t.mshrs then None
    else
      match t.mshrs.(i) with
      | Some m when m.m_line = line -> Some (i, m)
      | _ -> go (i + 1)
  in
  go 0

let in_flight t =
  Iring.length t.in_id
  + Array.fold_left (fun n m -> n + match m with Some _ -> 1 | None -> 0) 0 t.mshrs
  + Iring.length t.comp_id

(* A way already reserved as the fill target of an in-flight miss must not
   be picked by another miss in the same set. *)
let way_reserved t set way =
  Array.exists
    (function
      | Some m -> m.m_set = set && m.m_way = way
      | None -> false)
    t.mshrs

let probe t ~line =
  let set = set_of t line in
  match Sram.find_way t.array ~set ~tag:line with
  | -1 -> Msi.I
  | way -> (Sram.meta t.array ~set ~way).state

let try_hit t ~line =
  if t.flushing then false
  else begin
    let set = set_of t line in
    match Sram.find_way t.array ~set ~tag:line with
    | -1 -> false
    | way ->
      Stats.bump t.c_accesses;
      Stats.bump t.c_hits;
      Replacement.touch t.repl ~set ~way;
      true
  end

(* Handle one parent->child message if present.  Returns unit; leaves the
   message queued when output backpressure prevents progress. *)
let process_parent t ~now =
  match Fifo.peek_opt t.link.Link.p2c with
  | None -> ()
  | Some (Msg.Upgrade_resp { line; to_s }) -> (
    ignore (Fifo.deq t.link.Link.p2c);
    match find_mshr t line with
    | None ->
      (* Response without an MSHR: protocol violation. *)
      assert false
    | Some (idx, m) ->
      Sram.fill t.array ~set:m.m_set ~way:m.m_way ~tag:line { state = to_s };
      Replacement.touch t.repl ~set:m.m_set ~way:m.m_way;
      if m.m_waiters <> [] then Histogram.add t.miss_lat (now - m.m_born);
      if Trace.active t.trace Trace.L1 then
        Trace.emit t.trace ~now (Trace.Cache_fill { cache = t.name; line });
      List.iter
        (fun id -> complete_at t id (now + t.cfg.hit_latency))
        (List.rev m.m_waiters);
      t.mshrs.(idx) <- None)
  | Some (Msg.Downgrade_req { line; to_s }) ->
    if Fifo.can_enq t.link.Link.rs then begin
      ignore (Fifo.deq t.link.Link.p2c);
      let set = set_of t line in
      let way = Sram.find_way t.array ~set ~tag:line in
      let state = if way < 0 then Msi.I else (Sram.meta t.array ~set ~way).state in
      if Msi.lt to_s state then begin
        let dirty = state = Msi.M in
        if dirty then Stats.bump t.c_writebacks;
        if to_s = Msi.I then Sram.invalidate t.array ~set ~way
        else Sram.update t.array ~set ~way { state = to_s };
        Fifo.enq t.link.Link.rs { Msg.line; to_s; dirty }
      end
      else
        (* Already at or below the requested state (e.g. a voluntary
           eviction raced with this request): null response. *)
        Fifo.enq t.link.Link.rs { Msg.line; to_s; dirty = false }
    end

(* Next-line prefetch: a waiter-less miss for [line], issued only when it
   costs nothing that a demand access needs right now. *)
let try_prefetch t ~now line =
  let set = set_of t line in
  if
    Sram.find_way t.array ~set ~tag:line < 0
    && find_mshr t line = None
    && Fifo.can_enq t.link.Link.rq
  then begin
    match free_mshr t with
    | None -> ()
    | Some idx -> (
      let rec find_way w =
        if w >= t.cfg.ways then None
        else if
          (not (Sram.is_valid t.array ~set ~way:w)) && not (way_reserved t set w)
        then Some w
        else find_way (w + 1)
      in
      (* Prefetches never evict: only fill truly free ways. *)
      match find_way 0 with
      | None -> ()
      | Some way ->
        Stats.bump t.c_prefetches;
        t.mshrs.(idx) <-
          Some
            { m_line = line; m_to = Msi.S; m_way = way; m_set = set;
              m_born = now; m_waiters = [] };
        Fifo.enq t.link.Link.rq { Msg.line; from_s = Msi.I; to_s = Msi.S })
  end

let deq_input t =
  ignore (Iring.pop t.in_line);
  ignore (Iring.pop t.in_store);
  ignore (Iring.pop t.in_id)

(* Try to start the request at the head of the input queue. *)
let process_input t ~now =
  if not (Iring.is_empty t.in_id) then begin
    let line = Iring.peek t.in_line in
    let id = Iring.peek t.in_id in
    let set = set_of t line in
    let needed = Msi.needed_for ~store:(Iring.peek t.in_store = 1) in
    let present = Sram.find_way t.array ~set ~tag:line in
    if present >= 0 && Msi.leq needed (Sram.meta t.array ~set ~way:present).state
    then begin
      (* Hit. *)
      deq_input t;
      Stats.bump t.c_hits;
      Replacement.touch t.repl ~set ~way:present;
      complete_at t id (now + t.cfg.hit_latency)
    end
    else begin
      (* Miss or upgrade. *)
      match find_mshr t line with
      | Some (_, m) when Msi.leq needed m.m_to ->
        deq_input t;
        Stats.bump t.c_mshr_merges;
        m.m_waiters <- id :: m.m_waiters
      | Some _ ->
        (* In-flight grant too weak (load MSHR, store arrives): wait for
           it to complete, then re-request.  Head-of-line stall. *)
        ()
      | None -> (
        match free_mshr t with
        | None -> Stats.bump t.c_mshr_full_stalls
        | Some idx ->
          if Fifo.can_enq t.link.Link.rq then begin
            let from_s, way_opt =
              if present >= 0 then
                (* S->M upgrade in place *)
                ((Sram.meta t.array ~set ~way:present).state, Some present)
              else (Msi.I, None)
            in
            let find_unreserved_invalid () =
              let rec go w =
                if w >= t.cfg.ways then None
                else if
                  (not (Sram.is_valid t.array ~set ~way:w))
                  && not (way_reserved t set w)
                then Some w
                else go (w + 1)
              in
              go 0
            in
            let find_unreserved_victim () =
              (* Start from the policy's pick, scan to skip reserved
                 ways. *)
              let pick = Replacement.victim t.repl ~set ~invalid_way:None in
              let rec go tries w =
                if tries >= t.cfg.ways then None
                else if not (way_reserved t set w) then Some w
                else go (tries + 1) ((w + 1) mod t.cfg.ways)
              in
              go 0 pick
            in
            let way, ok =
              match way_opt with
              | Some w -> (w, true)
              | None -> (
                match find_unreserved_invalid () with
                | Some w -> (w, true)
                | None -> (
                  (* Replacement: victim must be evicted with a downgrade
                     response (clean or dirty). *)
                  match find_unreserved_victim () with
                  | None -> (0, false) (* all ways reserved: stall *)
                  | Some w ->
                    if Fifo.can_enq t.link.Link.rs then begin
                      (match Sram.read t.array ~set ~way:w with
                      | Some (vtag, vm) ->
                        let dirty = vm.state = Msi.M in
                        if dirty then
                          Stats.bump t.c_writebacks;
                        Stats.bump t.c_evictions;
                        Fifo.enq t.link.Link.rs
                          { Msg.line = vtag; to_s = Msi.I; dirty };
                        Sram.invalidate t.array ~set ~way:w
                      | None -> assert false);
                      (w, true)
                    end
                    else (0, false)))
            in
            if ok then begin
              deq_input t;
              Stats.bump t.c_misses;
              if Trace.active t.trace Trace.L1 then
                Trace.emit t.trace ~now
                  (Trace.Cache_miss { cache = t.name; line });
              t.mshrs.(idx) <-
                Some
                  {
                    m_line = line;
                    m_to = needed;
                    m_way = way;
                    m_set = set;
                    m_born = now;
                    m_waiters = [ id ];
                  };
              Fifo.enq t.link.Link.rq { Msg.line; from_s; to_s = needed };
              if t.cfg.prefetch_next_line then try_prefetch t ~now (line + 1)
            end
          end)
    end
  end

let rec deliver_completions t ~now ~complete =
  if not (Iring.is_empty t.comp_id) then begin
    if Iring.peek t.comp_ready <= now then begin
      ignore (Iring.pop t.comp_ready);
      complete (Iring.pop t.comp_id);
      deliver_completions t ~now ~complete
    end
  end

let tick t ~now ~complete =
  process_parent t ~now;
  if not t.flushing then process_input t ~now;
  deliver_completions t ~now ~complete

let begin_flush t =
  if in_flight t > 0 then failwith "L1.begin_flush: requests in flight";
  t.flushing <- true;
  t.flush_cursor <- 0

let valid_lines t = Sram.count_valid t.array
let is_flushing t = t.flushing

let flush_step t =
  if not t.flushing then invalid_arg "L1.flush_step: not flushing";
  let total = t.cfg.sets * t.cfg.ways in
  (* Skip invalid slots without consuming cycles beyond this one step. *)
  let rec find_valid cursor =
    if cursor >= total then None
    else begin
      let set = cursor / t.cfg.ways and way = cursor mod t.cfg.ways in
      match Sram.read t.array ~set ~way with
      | Some (tag, m) -> Some (cursor, set, way, tag, m)
      | None -> find_valid (cursor + 1)
    end
  in
  match find_valid t.flush_cursor with
  | Some (cursor, set, way, tag, m) ->
    (* The coherence protocol requires notifying the LLC even for clean
       invalidations (Section 7.1), so each line costs one rs message. *)
    if Fifo.can_enq t.link.Link.rs then begin
      let dirty = m.state = Msi.M in
      if dirty then Stats.bump t.c_writebacks;
      Fifo.enq t.link.Link.rs { Msg.line = tag; to_s = Msi.I; dirty };
      Sram.invalidate t.array ~set ~way;
      t.flush_cursor <- cursor + 1
    end;
    (* else: rs backpressured; retry this slot next cycle. *)
    false
  | None ->
    Replacement.scrub t.repl;
    t.flushing <- false;
    true

let replacement_signature t = Replacement.state_signature t.repl

let miss_latency t = t.miss_lat

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything behavior-relevant, including what fold_state
   excludes (tag array, replacement metadata).  MSHRs are copied by value
   because m_waiters is mutable.  The core-side link FIFOs are owned (and
   checkpointed) by the LLC, which holds the full links array. *)
type checkpoint = {
  ck_array : line_meta Sram.checkpoint;
  ck_repl : Replacement.checkpoint;
  ck_miss_lat : Histogram.t;
  ck_in_line : Iring.t;
  ck_in_store : Iring.t;
  ck_in_id : Iring.t;
  ck_mshrs : mshr option array;
  ck_comp_id : Iring.t;
  ck_comp_ready : Iring.t;
  ck_flushing : bool;
  ck_flush_cursor : int;
}

let copy_mshr m = { m with m_line = m.m_line }

let save t =
  {
    ck_array = Sram.save t.array;
    ck_repl = Replacement.save t.repl;
    ck_miss_lat = Histogram.copy t.miss_lat;
    ck_in_line = Iring.copy t.in_line;
    ck_in_store = Iring.copy t.in_store;
    ck_in_id = Iring.copy t.in_id;
    ck_mshrs = Array.map (Option.map copy_mshr) t.mshrs;
    ck_comp_id = Iring.copy t.comp_id;
    ck_comp_ready = Iring.copy t.comp_ready;
    ck_flushing = t.flushing;
    ck_flush_cursor = t.flush_cursor;
  }

let restore t ck =
  Sram.restore t.array ck.ck_array;
  Replacement.restore t.repl ck.ck_repl;
  Histogram.restore ~into:t.miss_lat ck.ck_miss_lat;
  Iring.assign t.in_line ~from:ck.ck_in_line;
  Iring.assign t.in_store ~from:ck.ck_in_store;
  Iring.assign t.in_id ~from:ck.ck_in_id;
  Array.iteri (fun i m -> t.mshrs.(i) <- Option.map copy_mshr m) ck.ck_mshrs;
  Iring.assign t.comp_id ~from:ck.ck_comp_id;
  Iring.assign t.comp_ready ~from:ck.ck_comp_ready;
  t.flushing <- ck.ck_flushing;
  t.flush_cursor <- ck.ck_flush_cursor

(* Structure state for the quiet-cycle detector: the input queue, MSHRs,
   pending completions, and the flush cursor.  The data array and
   replacement metadata are excluded — they only change in cycles that
   also move an MSHR, a queue, or the cursor. *)
let fold_state s t =
  let open Statesig in
  field s "in";
  init s (Iring.length t.in_id) (fun s k ->
      int s (Iring.get t.in_line k);
      bool s (Iring.get t.in_store k = 1);
      int s (Iring.get t.in_id k));
  field s "mshrs";
  array s
    (fun s m ->
      opt s
        (fun s m ->
          int s m.m_line;
          int s (Msi.rank m.m_to);
          int s m.m_way;
          int s m.m_set;
          int s m.m_born;
          field s "w"; list s int m.m_waiters)
        m)
    t.mshrs;
  field s "comp";
  init s (Iring.length t.comp_id) (fun s k ->
      int s (Iring.get t.comp_id k);
      int s (Iring.get t.comp_ready k));
  field s "flush"; bool s t.flushing; int s t.flush_cursor
