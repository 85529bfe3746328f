type kind =
  | Branch_condition
  | Jump_target
  | Load_address
  | Store_address
  | Variable_latency
  | Shared_write
  | Shared_read

let kind_rank = function
  | Branch_condition -> 0
  | Jump_target -> 1
  | Load_address -> 2
  | Store_address -> 3
  | Variable_latency -> 4
  | Shared_write -> 5
  | Shared_read -> 6

let kind_name = function
  | Branch_condition -> "branch-condition"
  | Jump_target -> "jump-target"
  | Load_address -> "load-address"
  | Store_address -> "store-address"
  | Variable_latency -> "variable-latency"
  | Shared_write -> "shared-write"
  | Shared_read -> "shared-read"

type finding = {
  pc : int;
  kind : kind;
  speculative : bool;
  rsb : bool;
  target : Vset.t option;
  width : int;
  instr : Instr.t;
  detail : string;
}

type secret = { regs : Reg.t list; ranges : (int * int) list }

let no_secret = { regs = []; ranges = [] }

(* ------------------------------------------------------------------ *)
(* Abstract domain                                                     *)
(* ------------------------------------------------------------------ *)

(* A register value: taint bit + a value set.  The two are independent:
   a tainted value can still be bounded (secrets enter with [vset = top],
   but [secret & 0xF8] is tainted {e and} confined to [0, 0xF8] — exactly
   the shape a Spectre gadget address has, and what lets Leak_infer resolve
   the access to concrete cache sets). *)
type value = { taint : bool; vset : Vset.t }

let vtop = { taint = false; vset = Vset.top }
let vtainted = { taint = true; vset = Vset.top }
let vconst c = { taint = false; vset = Vset.const c }

let value_widen a b =
  { taint = a.taint || b.taint; vset = Vset.widen a.vset b.vset }

let value_equal a b = a.taint = b.taint && Vset.equal a.vset b.vset

module Imap = Map.Make (Int)

(* Byte-precise taint for statically known addresses over a background of
   secret ranges; [blur] records that a tainted store escaped to an
   unknown address, after which every load may observe taint. *)
type mem = { bytes : bool Imap.t; blur : bool }

type state = {
  regs : value array;
  mem : mem;
  spec : int;
      (* [max_int]: architecturally reachable.  Otherwise the number of
         further wrong-path instructions the speculation window covers. *)
  depth : int;
      (* Call-stack depth the RSB mirrors (saturating at [depth_cap]).
         Joined with [min]: underflow on {e some} path means a return can
         follow a stale prediction on that path. *)
  rsb : bool;  (* fact reached here over an RSB-underflow wrong path *)
}

let depth_cap = 64

(* ------------------------------------------------------------------ *)
(* The analysis proper, parameterized by the secret set                *)
(* ------------------------------------------------------------------ *)

type raw = {
  r_pc : int;
  r_kind : kind;
  r_instr : Instr.t;
  r_detail : string;
  r_rsb : bool;
  r_target : Vset.t option;
  r_width : int;
}

let div_ops = [ Instr.Div; Instr.Divu; Instr.Rem; Instr.Remu ]
let div_w_ops = [ Instr.Divw; Instr.Divuw; Instr.Remw; Instr.Remuw ]

(* Value-set transfer for ALU ops: dedicated interval transformers where
   the domain has them, exact pairwise application of the reference
   semantics otherwise. *)
let vset_alu (op : Instr.alu_op) a b =
  match op with
  | Instr.Add -> Vset.add a b
  | Instr.Sub -> Vset.sub a b
  | Instr.And -> Vset.band a b
  | Instr.Or -> Vset.bor a b
  | Instr.Xor -> Vset.bxor a b
  | _ -> Vset.apply2 (Fsim.alu_compute op) a b

let run ~window ~(secret : secret) ~(shared : (int * int) list) cfg : raw list =
  let in_secret_range a =
    List.exists (fun (lo, hi) -> a >= lo && a < hi) secret.ranges
  in
  let module L = struct
    type t = state

    let equal a b =
      a.spec = b.spec && a.depth = b.depth && a.rsb = b.rsb
      && a.mem.blur = b.mem.blur
      && Imap.equal Bool.equal a.mem.bytes b.mem.bytes
      && Array.for_all2 value_equal a.regs b.regs

    (* Dataflow calls [join old incoming]; widening on the value sets
       keeps loop-carried addresses from climbing one step per
       iteration. *)
    let join a b =
      let bytes =
        Imap.merge
          (fun addr l r ->
            match (l, r) with
            | Some x, Some y -> Some (x || y)
            | (Some x, None | None, Some x) ->
              (* The absent side sits on the background. *)
              Some (x || in_secret_range addr)
            | None, None -> None)
          a.mem.bytes b.mem.bytes
      in
      {
        regs = Array.map2 value_widen a.regs b.regs;
        mem = { bytes; blur = a.mem.blur || b.mem.blur };
        spec = max a.spec b.spec;
        depth = min a.depth b.depth;
        rsb = a.rsb || b.rsb;
      }
  end in
  let module F = Dataflow.Forward (L) in
  let read (st : state) r = if r = 0 then vconst 0L else st.regs.(r) in
  let write (st : state) rd v =
    if rd = 0 then st
    else begin
      let regs = Array.copy st.regs in
      regs.(rd) <- v;
      { st with regs }
    end
  in
  let byte_taint (st : state) addr =
    let base =
      match Imap.find_opt addr st.mem.bytes with
      | Some t -> t
      | None -> in_secret_range addr
    in
    base || st.mem.blur
  in
  let addr_vset st rs1 offset =
    Vset.add (read st rs1).vset (Vset.const (Int64.of_int offset))
  in
  let load_taint st ~addr ~width =
    match Vset.to_const addr with
    | Some a ->
      let a = Int64.to_int a in
      let rec any i = i < width && (byte_taint st (a + i) || any (i + 1)) in
      any 0
    | None ->
      (* Uncertain address: the load observes taint if any byte it can
         reach is tainted. *)
      (not (Vset.is_bot addr))
      && (st.mem.blur
         || List.exists
              (fun (lo, hi) ->
                Vset.may_intersect addr ~lo:(Int64.of_int lo)
                  ~hi:(Int64.of_int hi) ~width)
              secret.ranges
         || Imap.exists
              (fun a t ->
                t
                && Vset.may_intersect addr ~lo:(Int64.of_int a)
                     ~hi:(Int64.of_int (a + 1)) ~width)
              st.mem.bytes)
  in
  let store st ~addr ~width ~taint =
    match Vset.to_const addr with
    | Some a ->
      let a = Int64.to_int a in
      let bytes = ref st.mem.bytes in
      for i = 0 to width - 1 do
        (* Speculative analysis models store-to-load bypass (Spectre-v4):
           a younger load may issue before this store drains and observe
           the previous value, so a store can only raise a byte's taint,
           never scrub it.  Committed analysis keeps the strong update. *)
        let t =
          if window > 0 then taint || byte_taint st (a + i) else taint
        in
        bytes := Imap.add (a + i) t !bytes
      done;
      { st with mem = { st.mem with bytes = !bytes } }
    | None ->
      (* Untainted stores to uncertain addresses can only lower taint;
         ignoring them is sound.  A tainted store weakly taints every
         byte it can reach, or blurs when that set is unbounded. *)
      if taint && not (Vset.is_bot addr) then
        match Vset.unit_list addr ~width ~shift:0 ~max:256 with
        | Some touched ->
          let bytes =
            List.fold_left
              (fun m a -> Imap.add a true m)
              st.mem.bytes touched
          in
          { st with mem = { st.mem with bytes } }
        | None -> { st with mem = { st.mem with blur = true } }
      else st
  in
  let binop vf rd a b st =
    write st rd { taint = a.taint || b.taint; vset = vf a.vset b.vset }
  in
  (* Outgoing facts: decrement a speculative budget; a fact that would
     arrive with no budget left is simply not propagated. *)
  let out st dsts =
    if st.spec = max_int then List.map (fun d -> (d, st)) dsts
    else if st.spec <= 1 then []
    else List.map (fun d -> (d, { st with spec = st.spec - 1 })) dsts
  in
  let edge_dsts kind succs =
    List.filter_map
      (fun (e : Cfg.edge) -> if e.Cfg.kind = kind then Some e.Cfg.dst else None)
      succs
  in
  let push st = { st with depth = min depth_cap (st.depth + 1) } in
  let spec_budget st = if st.spec = max_int then window else min st.spec window in
  let transfer (node : Cfg.node) (st : state) =
    let pc = node.Cfg.pc in
    let all = List.map (fun (e : Cfg.edge) -> e.Cfg.dst) node.Cfg.succs in
    match node.Cfg.instr with
    | Lui { rd; imm } -> out (write st rd (vconst (Int64.of_int imm))) all
    | Auipc { rd; imm } ->
      out (write st rd (vconst (Int64.of_int (pc + imm)))) all
    | Jal { rd; _ } ->
      let st = write st rd (vconst (Int64.of_int (pc + 4))) in
      let st = if rd = 1 then push st else st in
      out st all
    | Jalr { rd; rs1; offset } ->
      (* Indirect target: no static successors, but a singleton target
         value set inside the image lets the committed fact follow the
         jump.  [ret] additionally pops the modeled RSB depth; a return
         at depth 0 has exhausted the RSB, and with a speculation window
         the predictor supplies a stale (attacker-trained) target — the
         wrong path can start {e anywhere} in the image. *)
      let target = addr_vset st rs1 offset in
      let is_ret = rd = 0 && rs1 = 1 in
      let underflow = is_ret && st.depth = 0 in
      let st' = write st rd (vconst (Int64.of_int (pc + 4))) in
      let st' =
        if rd = 1 then push st'
        else if is_ret then { st' with depth = max 0 (st'.depth - 1) }
        else st'
      in
      let direct =
        match Vset.to_const target with
        | Some t -> out st' [ Int64.to_int t ]
        | None -> []
      in
      let wrong_path =
        let budget = spec_budget st in
        if underflow && window > 0 && budget >= 1 then
          let ghost = { st' with spec = budget; rsb = true } in
          List.map (fun (n : Cfg.node) -> (n.Cfg.pc, ghost)) (Cfg.nodes cfg)
        else []
      in
      direct @ wrong_path
    | Alu { op; rd; rs1; rs2 } ->
      out (binop (vset_alu op) rd (read st rs1) (read st rs2) st) all
    | Alu_imm { op; rd; rs1; imm } ->
      out
        (binop (vset_alu op) rd (read st rs1)
           (vconst (Int64.of_int imm))
           st)
        all
    | Alu_w { op; rd; rs1; rs2 } ->
      out
        (binop
           (Vset.apply2 (Fsim.alu_w_compute op))
           rd (read st rs1) (read st rs2) st)
        all
    | Alu_imm_w { op; rd; rs1; imm } ->
      out
        (binop
           (Vset.apply2 (Fsim.alu_w_compute op))
           rd (read st rs1)
           (vconst (Int64.of_int imm))
           st)
        all
    | Muldiv { rd; rs1; rs2; _ } | Muldiv_w { rd; rs1; rs2; _ } ->
      let a = read st rs1 and b = read st rs2 in
      out (write st rd { taint = a.taint || b.taint; vset = Vset.top }) all
    | Load { kind; rd; rs1; offset } ->
      let addr = addr_vset st rs1 offset in
      let t = load_taint st ~addr ~width:(Instr.load_bytes kind) in
      out (write st rd { taint = t; vset = Vset.top }) all
    | Store { kind; rs1; rs2; offset } ->
      let addr = addr_vset st rs1 offset in
      out
        (store st ~addr ~width:(Instr.store_bytes kind)
           ~taint:(read st rs2).taint)
        all
    | Lr { width; rd; rs1 } ->
      let addr = addr_vset st rs1 0 in
      let w = match width with Instr.W -> 4 | Instr.D -> 8 in
      let t = load_taint st ~addr ~width:w in
      out (write st rd { taint = t; vset = Vset.top }) all
    | Sc { width; rd; rs1; rs2 } ->
      let addr = addr_vset st rs1 0 in
      let w = match width with Instr.W -> 4 | Instr.D -> 8 in
      let st = store st ~addr ~width:w ~taint:(read st rs2).taint in
      out (write st rd { taint = false; vset = Vset.of_list [ 0L; 1L ] }) all
    | Amo { width; rd; rs1; rs2; _ } ->
      let addr = addr_vset st rs1 0 in
      let w = match width with Instr.W -> 4 | Instr.D -> 8 in
      let t = load_taint st ~addr ~width:w in
      let st = store st ~addr ~width:w ~taint:(t || (read st rs2).taint) in
      out (write st rd { taint = t; vset = Vset.top }) all
    | Branch { kind; rs1; rs2; _ } -> begin
      let a = read st rs1 and b = read st rs2 in
      let taken = edge_dsts Cfg.Taken node.Cfg.succs in
      let fall = edge_dsts Cfg.Not_taken node.Cfg.succs in
      match (Vset.to_const a.vset, Vset.to_const b.vset) with
      | Some x, Some y ->
        (* Direction statically known: only the live edge propagates the
           committed fact; in speculative mode the dead edge receives a
           budget-bounded wrong-path fact. *)
        let live, dead =
          if Fsim.branch_taken kind x y then (taken, fall) else (fall, taken)
        in
        let speculative =
          if window <= 0 then []
          else
            let budget = spec_budget st in
            if budget < 1 then []
            else List.map (fun d -> (d, { st with spec = budget })) dead
        in
        out st live @ speculative
      | _ -> out st all
    end
    | Csr { rd; _ } -> out (write st rd vtop) all
    | Ecall | Ebreak | Mret | Sret | Wfi -> []
    | Fence | Fence_i | Sfence_vma _ | Purge -> out st all
  in
  let entry_regs =
    Array.init 32 (fun i ->
        if i = 0 then vconst 0L
        else if List.mem i secret.regs then vtainted
        else vtop)
  in
  let entry =
    {
      regs = entry_regs;
      mem = { bytes = Imap.empty; blur = false };
      spec = max_int;
      depth = 0;
      rsb = false;
    }
  in
  let sol = F.solve cfg ~entry ~transfer in
  let findings = ref [] in
  let in_shared v width =
    List.exists
      (fun (lo, hi) ->
        Vset.may_intersect v ~lo:(Int64.of_int lo) ~hi:(Int64.of_int hi)
          ~width)
      shared
  in
  F.iter_reachable sol cfg (fun node st ->
      let pc = node.Cfg.pc in
      let tainted r = (read st r).taint in
      let names rs =
        String.concat ", " (List.map Reg.name (List.filter tainted rs))
      in
      let flag ?target ?(width = 0) r_kind r_detail =
        findings :=
          {
            r_pc = pc;
            r_kind;
            r_instr = node.Cfg.instr;
            r_detail;
            r_rsb = st.rsb;
            r_target = target;
            r_width = width;
          }
          :: !findings
      in
      (* Cross-enclave sharing discipline (Citadel): a declared shared
         region is read-shared.  Any write into it is a transmitter the
         other enclave can time; a secret-tainted read address turns the
         reader's own access pattern into one. *)
      let shared_mem ~addr ~width ~is_store ~addr_tainted =
        if is_store && in_shared addr width then
          flag ~target:addr ~width Shared_write
            (Printf.sprintf "store into declared read-shared region; addr in %s"
               (Vset.to_string addr));
        if addr_tainted && in_shared addr width then
          flag ~target:addr ~width Shared_read
            (Printf.sprintf
               "secret-indexed load from declared read-shared region; addr in %s"
               (Vset.to_string addr))
      in
      match node.Cfg.instr with
      | Branch { rs1; rs2; _ } when tainted rs1 || tainted rs2 ->
        flag Branch_condition
          (Printf.sprintf "branch condition reads secret-tainted %s"
             (names [ rs1; rs2 ]))
      | Jalr { rs1; offset; _ } when tainted rs1 ->
        flag
          ~target:(Vset.add (read st rs1).vset (Vset.const (Int64.of_int offset)))
          Jump_target
          (Printf.sprintf "indirect jump target reads secret-tainted %s"
             (Reg.name rs1))
      | Load { kind; rs1; offset; _ } ->
        let addr = Vset.add (read st rs1).vset (Vset.const (Int64.of_int offset)) in
        let width = Instr.load_bytes kind in
        if tainted rs1 then
          flag ~target:addr ~width Load_address
            (Printf.sprintf "load address reads secret-tainted %s"
               (Reg.name rs1));
        shared_mem ~addr ~width ~is_store:false ~addr_tainted:(tainted rs1)
      | Lr { width; rs1; _ } ->
        let addr = (read st rs1).vset in
        let w = match width with Instr.W -> 4 | Instr.D -> 8 in
        if tainted rs1 then
          flag ~target:addr ~width:w Load_address
            (Printf.sprintf "atomic access address reads secret-tainted %s"
               (Reg.name rs1));
        shared_mem ~addr ~width:w ~is_store:false ~addr_tainted:(tainted rs1)
      | Amo { width; rs1; _ } ->
        let addr = (read st rs1).vset in
        let w = match width with Instr.W -> 4 | Instr.D -> 8 in
        if tainted rs1 then
          flag ~target:addr ~width:w Load_address
            (Printf.sprintf "atomic access address reads secret-tainted %s"
               (Reg.name rs1));
        shared_mem ~addr ~width:w ~is_store:true ~addr_tainted:(tainted rs1)
      | Store { kind; rs1; offset; _ } ->
        let addr = Vset.add (read st rs1).vset (Vset.const (Int64.of_int offset)) in
        let width = Instr.store_bytes kind in
        if tainted rs1 then
          flag ~target:addr ~width Store_address
            (Printf.sprintf "store address reads secret-tainted %s"
               (Reg.name rs1));
        shared_mem ~addr ~width ~is_store:true ~addr_tainted:(tainted rs1)
      | Sc { width; rs1; _ } ->
        let addr = (read st rs1).vset in
        let w = match width with Instr.W -> 4 | Instr.D -> 8 in
        if tainted rs1 then
          flag ~target:addr ~width:w Store_address
            (Printf.sprintf "store address reads secret-tainted %s"
               (Reg.name rs1));
        shared_mem ~addr ~width:w ~is_store:true ~addr_tainted:(tainted rs1)
      | Muldiv { op; rs1; rs2; _ }
        when List.mem op div_ops && (tainted rs1 || tainted rs2) ->
        flag Variable_latency
          (Printf.sprintf
             "variable-latency divide/remainder on secret-tainted %s"
             (names [ rs1; rs2 ]))
      | Muldiv_w { op; rs1; rs2; _ }
        when List.mem op div_w_ops && (tainted rs1 || tainted rs2) ->
        flag Variable_latency
          (Printf.sprintf
             "variable-latency divide/remainder on secret-tainted %s"
             (names [ rs1; rs2 ]))
      | _ -> ());
  !findings

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let compare_finding a b =
  match compare a.pc b.pc with
  | 0 -> begin
    match compare (kind_rank a.kind) (kind_rank b.kind) with
    | 0 -> Bool.compare a.speculative b.speculative
    | c -> c
  end
  | c -> c

let analyze ?(window = 0) ?(shared = []) ~secret cfg =
  let committed = run ~window:0 ~secret ~shared cfg in
  let label speculative (r : raw) =
    {
      pc = r.r_pc;
      kind = r.r_kind;
      speculative;
      rsb = r.r_rsb;
      target = r.r_target;
      width = r.r_width;
      instr = r.r_instr;
      detail = r.r_detail;
    }
  in
  let findings =
    if window <= 0 then List.map (label false) committed
    else begin
      let committed_keys =
        List.map (fun r -> (r.r_pc, kind_rank r.r_kind)) committed
      in
      List.map
        (fun (r : raw) ->
          label (not (List.mem (r.r_pc, kind_rank r.r_kind) committed_keys)) r)
        (run ~window ~secret ~shared cfg)
    end
  in
  (* Deterministic report order regardless of fixpoint iteration order
     (mirrors the asm.ml label-sort fix): sort on (pc, kind, speculative). *)
  List.sort_uniq compare findings |> List.sort compare_finding

let analyze_program ?window ?shared ~secret p =
  Result.map (fun cfg -> analyze ?window ?shared ~secret cfg) (Cfg.of_program p)

let pp_finding ppf f =
  Format.fprintf ppf "0x%x: [%s%s%s] %s  (%s)" f.pc (kind_name f.kind)
    (if f.speculative then ", speculative" else "")
    (if f.rsb then ", rsb" else "")
    f.detail (Instr.to_string f.instr)

let finding_to_json f =
  Json.Obj
    [
      ("pc", Json.Int f.pc);
      ("kind", Json.String (kind_name f.kind));
      ("speculative", Json.Bool f.speculative);
      ("rsb", Json.Bool f.rsb);
      ( "target",
        match f.target with
        | Some v -> Json.String (Vset.to_string v)
        | None -> Json.Null );
      ("width", Json.Int f.width);
      ("instr", Json.String (Instr.to_string f.instr));
      ("detail", Json.String (f.detail));
    ]
