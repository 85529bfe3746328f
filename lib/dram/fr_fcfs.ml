type req = { read : bool; line : int; tag : int }

type config = {
  banks : int;
  row_lines : int;
  hit_latency : int;
  miss_latency : int;
  max_outstanding : int;
}

let default_config =
  {
    banks = 8;
    row_lines = 128; (* 8 KB rows *)
    hit_latency = 60;
    miss_latency = 120;
    max_outstanding = 24;
  }

type waiting = { w_req : req; w_seq : int }

type bank = {
  mutable open_row : int option;
  mutable busy_until : int;
  mutable current : (req * int) option; (* request in service, done_at *)
}

type t = {
  cfg : config;
  stats : Stats.t;
  trace : Trace.t;
  banks : bank array;
  mutable queue : waiting list; (* arrival order, oldest first *)
  mutable seq : int;
  mutable accepted_at : int;
  ready : (int * req) Fifo.t; (* done_at, req — completed, pending respond *)
}

let create ?(trace = Trace.null) cfg ~stats =
  {
    cfg;
    stats;
    trace;
    banks =
      Array.init cfg.banks (fun _ ->
          { open_row = None; busy_until = 0; current = None });
    queue = [];
    seq = 0;
    accepted_at = -1;
    ready = Fifo.create ~capacity:cfg.max_outstanding;
  }

let bank_of (cfg : config) ~line = line land (cfg.banks - 1)
let row_of (cfg : config) ~line = line / cfg.banks / cfg.row_lines

let outstanding t =
  List.length t.queue
  + Array.fold_left
      (fun n b -> n + match b.current with Some _ -> 1 | None -> 0)
      0 t.banks
  + Fifo.length t.ready

let can_accept t = outstanding t < t.cfg.max_outstanding

let accept t ~now req =
  if not (can_accept t) then failwith "Fr_fcfs.accept: backpressured";
  if t.accepted_at = now then failwith "Fr_fcfs.accept: two requests in one cycle";
  t.accepted_at <- now;
  Stats.incr t.stats (if req.read then "dram.reads" else "dram.writes");
  t.queue <- t.queue @ [ { w_req = req; w_seq = t.seq } ];
  t.seq <- t.seq + 1

(* FR-FCFS scheduling: for each idle bank, prefer the oldest request that
   hits the open row; otherwise the oldest request for that bank. *)
let schedule t ~now =
  Array.iteri
    (fun bi bank ->
      if bank.current = None && bank.busy_until <= now then begin
        let for_bank =
          List.filter (fun w -> bank_of t.cfg ~line:w.w_req.line = bi) t.queue
        in
        let pick =
          let hits =
            List.filter
              (fun w -> bank.open_row = Some (row_of t.cfg ~line:w.w_req.line))
              for_bank
          in
          match (hits, for_bank) with
          | w :: _, _ -> Some (w, true)
          | [], w :: _ -> Some (w, false)
          | [], [] -> None
        in
        match pick with
        | None -> ()
        | Some (w, row_hit) ->
          t.queue <- List.filter (fun x -> x.w_seq <> w.w_seq) t.queue;
          let lat =
            if row_hit then t.cfg.hit_latency else t.cfg.miss_latency
          in
          if row_hit then Stats.incr t.stats "dram.row_hits"
          else Stats.incr t.stats "dram.row_misses";
          if Trace.active t.trace Trace.Dram then
            Trace.emit t.trace ~now
              (Trace.Dram_cmd
                 { bank = bi; read = w.w_req.read; row_hit; line = w.w_req.line });
          bank.open_row <- Some (row_of t.cfg ~line:w.w_req.line);
          bank.current <- Some (w.w_req, now + lat)
      end)
    t.banks

let tick t ~now ~respond =
  schedule t ~now;
  (* Collect finished bank operations. *)
  Array.iter
    (fun bank ->
      match bank.current with
      | Some (req, done_at) when done_at <= now ->
        bank.current <- None;
        bank.busy_until <- now;
        if req.read then Fifo.enq t.ready (done_at, req)
      | _ -> ())
    t.banks;
  (* One response per cycle on the shared data bus. *)
  match Fifo.peek_opt t.ready with
  | Some (_, req) ->
    ignore (Fifo.deq t.ready);
    respond ~tag:req.tag ~line:req.line
  | None -> ()

(* Checkpoint/restore: bank records are mutable and copied by value;
   the waiting queue and ready fifo hold immutable payloads. *)
type checkpoint = {
  ck_banks : bank array;
  ck_queue : waiting list;
  ck_seq : int;
  ck_accepted_at : int;
  ck_ready : (int * req) list;
}

let copy_bank b = { b with open_row = b.open_row }

let save t =
  {
    ck_banks = Array.map copy_bank t.banks;
    ck_queue = t.queue;
    ck_seq = t.seq;
    ck_accepted_at = t.accepted_at;
    ck_ready = Fifo.to_list t.ready;
  }

let restore t ck =
  Array.iteri (fun i b -> t.banks.(i) <- copy_bank b) ck.ck_banks;
  t.queue <- ck.ck_queue;
  t.seq <- ck.ck_seq;
  t.accepted_at <- ck.ck_accepted_at;
  Fifo.assign t.ready ck.ck_ready

(* Structure state for the quiet-cycle detector: waiting queue, per-bank
   service state, and the response fifo.  Open rows are included — a row
   opened this cycle changes future timing even if the queues look the
   same. *)
let fold_state s t =
  let open Statesig in
  let req s r =
    bool s r.read;
    int s r.line;
    int s r.tag
  in
  field s "q";
  list s
    (fun s w ->
      req s w.w_req;
      int s w.w_seq)
    t.queue;
  field s "banks";
  array s
    (fun s b ->
      field s "row"; opt s int b.open_row;
      field s "busy"; int s b.busy_until;
      field s "cur";
      opt s
        (fun s (r, done_at) ->
          req s r;
          int s done_at)
        b.current)
    t.banks;
  field s "seq"; int s t.seq;
  field s "ready";
  fifo s
    (fun s (done_at, r) ->
      int s done_at;
      req s r)
    t.ready
