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

type pending = { p_line : int; p_store : bool; p_id : int }

type t = {
  cfg : config;
  array : line_meta Sram.t;
  repl : Replacement.t;
  link : Link.t;
  stats : Stats.t;
  trace : Trace.t;
  miss_lat : Histogram.t; (* demand-miss request-to-fill latency *)
  name : string;
  input : pending Fifo.t;
  mshrs : mshr option array;
  completions : (int * int) Queue.t; (* id, ready_at *)
  mutable flushing : bool;
  mutable flush_cursor : int; (* line index being flushed: set * ways + way *)
}

let create ?(trace = Trace.null) cfg ~link ~stats ~name =
  {
    cfg;
    array = Sram.create ~sets:cfg.sets ~ways:cfg.ways;
    repl = Replacement.pseudo_random ~ways:cfg.ways ~sets:cfg.sets ~seed:cfg.seed;
    link;
    stats;
    trace;
    miss_lat = Histogram.create ();
    name;
    input = Fifo.create ~capacity:4;
    mshrs = Array.make cfg.mshrs None;
    completions = Queue.create ();
    flushing = false;
    flush_cursor = 0;
  }

let config t = t.cfg
let can_accept t = Fifo.can_enq t.input && not t.flushing

let request t ~line ~store ~id =
  if not (can_accept t) then failwith "L1.request: not ready";
  Stats.incr t.stats (t.name ^ ".accesses");
  Fifo.enq t.input { p_line = line; p_store = store; p_id = id }

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
  Fifo.length t.input
  + Array.fold_left (fun n m -> n + match m with Some _ -> 1 | None -> 0) 0 t.mshrs
  + Queue.length t.completions

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
  match Sram.find t.array ~set ~tag:line with
  | Some (_, m) -> m.state
  | None -> Msi.I

let try_hit t ~line =
  if t.flushing then false
  else begin
    let set = set_of t line in
    match Sram.find t.array ~set ~tag:line with
    | Some (way, _) ->
      Stats.incr t.stats (t.name ^ ".accesses");
      Stats.incr t.stats (t.name ^ ".hits");
      Replacement.touch t.repl ~set ~way;
      true
    | None -> false
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
        (fun id -> Queue.add (id, now + t.cfg.hit_latency) t.completions)
        (List.rev m.m_waiters);
      t.mshrs.(idx) <- None)
  | Some (Msg.Downgrade_req { line; to_s }) ->
    if Fifo.can_enq t.link.Link.rs then begin
      ignore (Fifo.deq t.link.Link.p2c);
      let set = set_of t line in
      match Sram.find t.array ~set ~tag:line with
      | Some (way, m) when Msi.lt to_s m.state ->
        let dirty = m.state = Msi.M in
        if dirty then Stats.incr t.stats (t.name ^ ".writebacks");
        if to_s = Msi.I then Sram.invalidate t.array ~set ~way
        else Sram.update t.array ~set ~way { state = to_s };
        Fifo.enq t.link.Link.rs { Msg.line; to_s; dirty }
      | _ ->
        (* Already at or below the requested state (e.g. a voluntary
           eviction raced with this request): null response. *)
        Fifo.enq t.link.Link.rs { Msg.line; to_s; dirty = false }
    end

(* Next-line prefetch: a waiter-less miss for [line], issued only when it
   costs nothing that a demand access needs right now. *)
let try_prefetch t ~now line =
  let set = set_of t line in
  if
    Sram.find t.array ~set ~tag:line = None
    && find_mshr t line = None
    && Fifo.can_enq t.link.Link.rq
  then begin
    match free_mshr t with
    | None -> ()
    | Some idx -> (
      let rec find_way w =
        if w >= t.cfg.ways then None
        else if Sram.read t.array ~set ~way:w = None && not (way_reserved t set w)
        then Some w
        else find_way (w + 1)
      in
      (* Prefetches never evict: only fill truly free ways. *)
      match find_way 0 with
      | None -> ()
      | Some way ->
        Stats.incr t.stats (t.name ^ ".prefetches");
        t.mshrs.(idx) <-
          Some
            { m_line = line; m_to = Msi.S; m_way = way; m_set = set;
              m_born = now; m_waiters = [] };
        Fifo.enq t.link.Link.rq { Msg.line; from_s = Msi.I; to_s = Msi.S })
  end

(* Try to start the request at the head of the input queue. *)
let process_input t ~now =
  match Fifo.peek_opt t.input with
  | None -> ()
  | Some { p_line = line; p_store = store; p_id = id } -> (
    let set = set_of t line in
    let needed = Msi.needed_for ~store in
    match Sram.find t.array ~set ~tag:line with
    | Some (way, m) when Msi.leq needed m.state ->
      (* Hit. *)
      ignore (Fifo.deq t.input);
      Stats.incr t.stats (t.name ^ ".hits");
      Replacement.touch t.repl ~set ~way;
      Queue.add (id, now + t.cfg.hit_latency) t.completions
    | present -> (
      (* Miss or upgrade. *)
      match find_mshr t line with
      | Some (_, m) when Msi.leq needed m.m_to ->
        ignore (Fifo.deq t.input);
        Stats.incr t.stats (t.name ^ ".mshr_merges");
        m.m_waiters <- id :: m.m_waiters
      | Some _ ->
        (* In-flight grant too weak (load MSHR, store arrives): wait for
           it to complete, then re-request.  Head-of-line stall. *)
        ()
      | None -> (
        match free_mshr t with
        | None -> Stats.incr t.stats (t.name ^ ".mshr_full_stalls")
        | Some idx ->
          if Fifo.can_enq t.link.Link.rq then begin
            let from_s, way_opt =
              match present with
              | Some (way, m) -> (m.state, Some way) (* S->M upgrade in place *)
              | None -> (Msi.I, None)
            in
            let find_unreserved_invalid () =
              let rec go w =
                if w >= t.cfg.ways then None
                else if
                  Sram.read t.array ~set ~way:w = None
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
                          Stats.incr t.stats (t.name ^ ".writebacks");
                        Stats.incr t.stats (t.name ^ ".evictions");
                        Fifo.enq t.link.Link.rs
                          { Msg.line = vtag; to_s = Msi.I; dirty };
                        Sram.invalidate t.array ~set ~way:w
                      | None -> assert false);
                      (w, true)
                    end
                    else (0, false)))
            in
            if ok then begin
              ignore (Fifo.deq t.input);
              Stats.incr t.stats (t.name ^ ".misses");
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
          end)))

let deliver_completions t ~now ~complete =
  let rec go () =
    match Queue.peek_opt t.completions with
    | Some (id, ready) when ready <= now ->
      ignore (Queue.pop t.completions);
      complete id;
      go ()
    | _ -> ()
  in
  go ()

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
      if dirty then Stats.incr t.stats (t.name ^ ".writebacks");
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
  ck_input : pending list;
  ck_mshrs : mshr option array;
  ck_completions : (int * int) list;
  ck_flushing : bool;
  ck_flush_cursor : int;
}

let copy_mshr m = { m with m_line = m.m_line }

let save t =
  {
    ck_array = Sram.save t.array;
    ck_repl = Replacement.save t.repl;
    ck_miss_lat = Histogram.copy t.miss_lat;
    ck_input = Fifo.to_list t.input;
    ck_mshrs = Array.map (Option.map copy_mshr) t.mshrs;
    ck_completions = List.of_seq (Queue.to_seq t.completions);
    ck_flushing = t.flushing;
    ck_flush_cursor = t.flush_cursor;
  }

let restore t ck =
  Sram.restore t.array ck.ck_array;
  Replacement.restore t.repl ck.ck_repl;
  Histogram.restore ~into:t.miss_lat ck.ck_miss_lat;
  Fifo.assign t.input ck.ck_input;
  Array.iteri (fun i m -> t.mshrs.(i) <- Option.map copy_mshr m) ck.ck_mshrs;
  Queue.clear t.completions;
  List.iter (fun c -> Queue.add c t.completions) ck.ck_completions;
  t.flushing <- ck.ck_flushing;
  t.flush_cursor <- ck.ck_flush_cursor

(* Structure state for the quiet-cycle detector: the input queue, MSHRs,
   pending completions, and the flush cursor.  The data array and
   replacement metadata are excluded — they only change in cycles that
   also move an MSHR, a queue, or the cursor. *)
let fold_state s t =
  let open Statesig in
  field s "in";
  fifo s
    (fun s p ->
      int s p.p_line;
      bool s p.p_store;
      int s p.p_id)
    t.input;
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
  queue s
    (fun s (id, ready) ->
      int s id;
      int s ready)
    t.completions;
  field s "flush"; bool s t.flushing; int s t.flush_cursor
