type finding = {
  check : string;
  subject : string;
  channel : Channel.t option;
  message : string;
}

(* A finding accumulator for [subject]: [f check channel message] raises
   one finding, [found ()] returns them in raise order. *)
let collector subject =
  let findings = ref [] in
  let f check channel message =
    findings := { check; subject; channel = Some channel; message } :: !findings
  in
  (f, fun () -> List.rev !findings)

type coverage = Drained | Flushed of { entries : int; rate : int }

type structure = { s_name : string; s_coverage : coverage }

(* ------------------------------------------------------------------ *)
(* Purge coverage (Sections 6 and 7.1)                                 *)
(* ------------------------------------------------------------------ *)

(* The per-core stateful structures of Figure 4 and how the purge state
   machine covers each: in-flight structures empty during the quiesce
   phase; retained arrays are flushed at the hardware rates of
   Section 7.1 (predictor tables 8 entries/cycle, caches one line per
   cycle).  Sizes mirror the simulator's modules (Tournament, Btb, Ras,
   L1); keeping them here, statically, is the point — the list is the
   ground truth the purge tests cross-validate. *)
let purge_list ~(core : Core_config.t) ~(l1 : L1.config) =
  let flushed entries rate = Flushed { entries; rate } in
  [
    {
      s_name =
        Printf.sprintf
          "ROB(%d) / IQ(%d) / LQ(%d) / SQ(%d) / SB(%d) in-flight state"
          core.Core_config.rob_entries core.Core_config.iq_entries
          core.Core_config.lq_entries core.Core_config.sq_entries
          core.Core_config.sb_entries;
      s_coverage = Drained;
    };
    { s_name = "rename map + free list"; s_coverage = Drained };
    {
      s_name = "tournament global/choice tables (4096 x 2b)";
      s_coverage = flushed 4096 8;
    };
    {
      s_name = "tournament local history (1024 x 10b)";
      s_coverage = flushed 1024 8;
    };
    { s_name = "BTB (256 entries)"; s_coverage = flushed 256 8 };
    { s_name = "RAS (8 entries)"; s_coverage = flushed 8 8 };
    {
      s_name =
        Printf.sprintf "L1 I (%d lines, 1 line/cycle)"
          (l1.L1.sets * l1.L1.ways);
      s_coverage = flushed (l1.L1.sets * l1.L1.ways) 1;
    };
    {
      s_name =
        Printf.sprintf "L1 D (%d lines, 1 line/cycle)"
          (l1.L1.sets * l1.L1.ways);
      s_coverage = flushed (l1.L1.sets * l1.L1.ways) 1;
    };
    { s_name = "TLBs + translation caches (512 entries)"; s_coverage = flushed 512 8 };
  ]

let required_purge_floor ~core ~l1 =
  List.fold_left
    (fun acc s ->
      match s.s_coverage with
      | Drained -> acc
      | Flushed { entries; rate } -> max acc ((entries + rate - 1) / rate))
    0 (purge_list ~core ~l1)

(* ------------------------------------------------------------------ *)
(* LLC set-partition disjointness (Sections 5.2, 7.2)                  *)
(* ------------------------------------------------------------------ *)

(* Behavioural validation of the index function: sample line numbers of
   every DRAM region (a dense prefix long enough to cycle the low index
   bits, plus the region tail) and collect the sets each region can
   touch.  The paper's invariant is then: region set-usages are
   pairwise equal-or-disjoint, there are at least two classes, and the
   classes tile the whole cache. *)
let region_usage ~geometry idx r =
  let sets = Index.sets idx in
  let bv = Bitvec.create sets in
  let base_line = Addr.region_base geometry r / Addr.line_bytes in
  let region_lines = geometry.Addr.region_bytes / Addr.line_bytes in
  let dense = min region_lines (4 * sets) in
  for k = 0 to dense - 1 do
    Bitvec.set bv (Index.index idx ~line:(base_line + k))
  done;
  for k = max 0 (region_lines - 64) to region_lines - 1 do
    Bitvec.set bv (Index.index idx ~line:(base_line + k))
  done;
  bv

let lint_partitions ~geometry ~name idx =
  let n = geometry.Addr.region_count in
  let usages = Array.init n (region_usage ~geometry idx) in
  let f, found = collector name in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        (not (Bitvec.equal usages.(i) usages.(j)))
        && not (Bitvec.disjoint usages.(i) usages.(j))
      then
        f "llc-partition" Cache
          (Printf.sprintf
             "DRAM regions %d and %d share some but not all LLC sets — the \
              index function is not a partition"
             i j)
    done
  done;
  (* Distinct classes + tiling. *)
  let classes =
    Array.to_list usages
    |> List.fold_left
         (fun acc u -> if List.exists (Bitvec.equal u) acc then acc else u :: acc)
         []
  in
  if List.length classes < 2 then
    f "llc-partition" Cache
      (Printf.sprintf
         "a single set-partition class: every DRAM region can evict every \
          LLC set (flat index, Section 7.2 violated)")
  else begin
    let covered =
      List.fold_left (fun acc u -> acc + Bitvec.popcount u) 0 classes
    in
    let sets = Index.sets idx in
    if covered <> sets then
      f "llc-partition" Cache
        (Printf.sprintf
           "partition classes cover %d sets of %d — the classes do not tile \
            the cache"
           covered sets)
  end;
  found ()

(* ------------------------------------------------------------------ *)
(* Region permission masks (Section 6.1)                               *)
(* ------------------------------------------------------------------ *)

let lint_region_masks ~subject masks =
  let f, found = collector subject in
  (match masks with
  | [] | [ _ ] -> ()
  | (_, first) :: _ ->
    let w = Bitvec.length first in
    List.iter
      (fun (label, m) ->
        if Bitvec.length m <> w then
          f "region-mask-width" Dram
            (Printf.sprintf "mask of %s is %d bits wide, expected %d" label
               (Bitvec.length m) w))
      masks);
  let rec pairs = function
    | [] -> ()
    | (la, a) :: rest ->
      List.iter
        (fun (lb, b) ->
          if Bitvec.length a = Bitvec.length b && not (Bitvec.disjoint a b)
          then
            let shared =
              List.find (fun i -> Bitvec.get b i) (Bitvec.to_indices a)
            in
            f "region-overlap" Dram
              (Printf.sprintf
                 "protection domains %s and %s both own DRAM region %d" la lb
                 shared))
        rest;
      pairs rest
  in
  pairs masks;
  found ()

let lint_ledger ledger =
  let n = Region.region_count ledger in
  let f, found = collector "ledger" in
  if Region.owner ledger 0 <> Region.Monitor then
    f "monitor-region" Dram
      "region 0 is not held by the security monitor (Section 6.1 static \
       reservation)";
  let label = function
    | Region.Monitor -> "monitor"
    | Region.Os -> "os"
    | Region.Free -> "free"
    | Region.Enclave id -> Printf.sprintf "enclave-%d" id
  in
  let owners = ref [] in
  for r = 0 to n - 1 do
    let o = label (Region.owner ledger r) in
    match List.assoc_opt o !owners with
    | Some bv -> Bitvec.set bv r
    | None ->
      let bv = Bitvec.create n in
      Bitvec.set bv r;
      owners := (o, bv) :: !owners
  done;
  let owners = List.rev !owners in
  let union = Bitvec.create n in
  List.iter (fun (_, bv) -> Bitvec.iter_set (Bitvec.set union) bv) owners;
  if Bitvec.popcount union <> n then
    f "region-coverage" Dram
      (Printf.sprintf "ownership masks cover %d of %d regions"
         (Bitvec.popcount union) n);
  (* Read sharing (Citadel relaxation): declared grants may widen access
     masks across domains, but never on the monitor's region, and never
     implicitly — any cross-domain reach outside a declared share is
     still an ownership violation. *)
  let shared = Region.shared_regions ledger in
  List.iter
    (fun r ->
      if r = 0 then
        f "shared-monitor-region" Dram
          "region 0 (security-monitor memory) carries a read grant — \
           monitor state must never be shared")
    shared;
  let domains =
    let acc = ref [] in
    let add o = if not (List.mem o !acc) then acc := o :: !acc in
    for r = 0 to n - 1 do
      add (Region.owner ledger r);
      List.iter add (Region.readers ledger r)
    done;
    List.rev !acc
  in
  let access who =
    let bv = Bitvec.create n in
    for r = 0 to n - 1 do
      if Region.owner ledger r = who || List.mem who (Region.readers ledger r)
      then Bitvec.set bv r
    done;
    bv
  in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      let bva = access a in
      List.iter
        (fun b ->
          let bvb = access b in
          List.iter
            (fun r ->
              if Bitvec.get bvb r && not (List.mem r shared) then
                f "region-overlap" Dram
                  (Printf.sprintf
                     "protection domains %s and %s both reach DRAM region %d \
                      outside any declared share"
                     (label a) (label b) r))
            (Bitvec.to_indices bva))
        rest;
      pairs rest
  in
  pairs domains;
  found () @ lint_region_masks ~subject:"ledger" owners

(* ------------------------------------------------------------------ *)
(* Whole machine configurations                                        *)
(* ------------------------------------------------------------------ *)

let lint_timing ?(geometry = Addr.default_regions) ~name (t : Config.timing) =
  let f, found = collector name in
  let core = t.Config.core and llc = t.Config.llc in
  let sec = t.Config.llc_security in
  (* Purge coverage. *)
  if not core.Core_config.flush_on_trap then
    f "purge-on-trap" Purge
      "core does not purge at protection-domain transitions (Section 6: \
       every per-core structure must be scrubbed on trap entry and return)";
  let req = required_purge_floor ~core ~l1:t.Config.l1 in
  if core.Core_config.purge_floor < req then
    f "purge-floor" Purge
      (Printf.sprintf
         "purge_floor %d is below the %d cycles the slowest per-core \
          structure needs at its flush rate (Section 7.1)"
         core.Core_config.purge_floor req);
  (* MSHR vs DRAM bandwidth (Section 5.1: #MSHR <= d_max / 2). *)
  if 2 * llc.Llc.mshrs > t.Config.dram_outstanding then
    f "mshr-vs-dram" Dram
      (Printf.sprintf
         "%d LLC MSHRs exceed d_max/2 = %d: the DRAM controller can be \
          backed up into a cross-domain timing channel (Section 5.1)"
         llc.Llc.mshrs
         (t.Config.dram_outstanding / 2));
  if llc.Llc.mshrs mod llc.Llc.mshr_banks <> 0 then
    f "mshr-banking" Mshr
      (Printf.sprintf "%d MSHRs do not divide evenly into %d banks"
         llc.Llc.mshrs llc.Llc.mshr_banks);
  if sec.Llc.partitioned_mshrs && llc.Llc.mshrs mod llc.Llc.cores <> 0 then
    f "mshr-partitioning" Mshr
      (Printf.sprintf
         "%d MSHRs cannot be statically partitioned among %d ports"
         llc.Llc.mshrs llc.Llc.cores);
  (* Figure 3 structural knobs. *)
  let knob on check channel message = if not on then f check channel message in
  knob sec.Llc.partitioned_mshrs "llc-mshr-sharing" Mshr
    "MSHRs are dynamically shared: allocation contention leaks across \
     domains (Figure 3 partitions them statically)";
  knob sec.Llc.round_robin_arbiter "llc-arbiter" Arbiter
    "input arbiter is a priority mux: grant timing depends on other \
     cores' traffic (Figure 3 uses a strict round-robin slot)";
  knob sec.Llc.split_uq "llc-shared-uq" Uq_dq
    "shared UQ: head-of-line blocking crosses cores (Figure 3 gives each \
     core its own UQ)";
  knob sec.Llc.per_partition_downgrade "llc-shared-downgrade" Uq_dq
    "shared Downgrade-L1 scanner serializes downgrades across partitions";
  knob sec.Llc.dq_retry "llc-dq-port" Uq_dq
    "replacement writeback+read holds the DQ port two cycles: timing \
     depends on other domains' replacements (Figure 3 re-enters via a \
     retry bit)";
  found () @ lint_partitions ~geometry ~name llc.Llc.index

(* ------------------------------------------------------------------ *)

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s: %s" f.check f.subject f.message

let finding_to_json f =
  Json.Obj
    [
      ("check", Json.String f.check);
      ("subject", Json.String f.subject);
      ("message", Json.String f.message);
    ]
