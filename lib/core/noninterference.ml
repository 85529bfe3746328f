type llc_setup = {
  security : Llc.security;
  index : Index.t;
  mshrs : int;
  mshr_banks : int;
  strict_bank_stall : bool;
}

let baseline_setup =
  {
    security = Llc.baseline_security;
    index = Index.flat ~set_bits:10;
    mshrs = 16;
    mshr_banks = 1;
    strict_bank_stall = false;
  }

let mi6_setup =
  {
    security = Llc.mi6_security;
    index =
      Index.partitioned ~set_bits:10 ~region_bits:2
        ~geometry:Addr.default_regions;
    (* Partitioned: 6 entries per core; DRAM sized per the paper's rule. *)
    mshrs = 12;
    mshr_banks = 1;
    strict_bank_stall = false;
  }

let geometry = Addr.default_regions

(* The attacker sits on the HIGHER core index: the baseline two-level mux
   arbitrates lower cores first, so its unfairness (a Section 5.4.2 minor
   leak) is visible to the attacker; MI6's round-robin arbiter must make
   the position irrelevant. *)
let attacker_core = 1
let victim_core = 0

(* Attacker data lives in region 2, victim data in region 3: disjoint
   protection domains. *)
let attacker_base_line = Addr.region_base geometry 2 / Addr.line_bytes
let victim_base_line = Addr.region_base geometry 3 / Addr.line_bytes

let make_hierarchy ?trace setup ~dram =
  let stats = Stats.create () in
  let llc_cfg =
    {
      (Llc.default_config ~cores:2) with
      Llc.index = setup.index;
      mshrs = setup.mshrs;
      mshr_banks = setup.mshr_banks;
      strict_bank_stall = setup.strict_bank_stall;
    }
  in
  Hierarchy.create ?trace ~llc:llc_cfg ~security:setup.security ~dram ~stats
    ()

let const_dram = Hierarchy.Const_dram { latency = 120; max_outstanding = 24 }

(* Serially access [line] from [core] and return the completion latency.
   [while_waiting] runs every cycle (drives the concurrent victim). *)
let timed_access ?(while_waiting = fun () -> ()) h ~core ~line =
  let rec wait_ready budget =
    if budget = 0 then failwith "Noninterference: L1 never ready";
    if not (Hierarchy.can_accept h ~core) then begin
      while_waiting ();
      Hierarchy.tick h;
      ignore (Hierarchy.take_completions h ~core);
      wait_ready (budget - 1)
    end
  in
  wait_ready 10_000;
  let issued = Hierarchy.now h in
  Hierarchy.request h ~core ~line ~store:false ~id:0;
  let rec wait budget =
    if budget = 0 then failwith "Noninterference: access never completed";
    while_waiting ();
    Hierarchy.tick h;
    match Hierarchy.take_completions h ~core with
    | [] -> wait (budget - 1)
    | (_, at) :: _ -> at - issued
  in
  wait 10_000

(* Untimed access: issue and wait for completion. *)
let plain_access h ~core ~line =
  ignore (timed_access h ~core ~line)

(* ------------------------------------------------------------------ *)
(* Prime + probe                                                       *)
(* ------------------------------------------------------------------ *)

let prime_probe setup ~secret =
  let h = make_hierarchy setup ~dram:const_dram in
  (* Lines of the attacker that share one index-set under the FLAT
     function; under the partitioned function they stay inside the
     attacker's slice either way. *)
  let set = 5 in
  let attacker_line k = attacker_base_line + (k * 1024) + set in
  (* Victim lines mapping (flat) to the same set when the secret is 1,
     to a different set otherwise. *)
  let victim_line k =
    victim_base_line + (k * 1024) + if secret then set else set + 7
  in
  (* Prime: fill the set with the attacker's 16 ways (and warm the
     attacker L1 out of the picture by using >8 lines per L1 set). *)
  for k = 0 to 15 do
    plain_access h ~core:attacker_core ~line:(attacker_line k)
  done;
  (* Victim activity while the attacker is idle. *)
  for k = 0 to 7 do
    plain_access h ~core:victim_core ~line:(victim_line k)
  done;
  (* Probe: time each attacker line again.  L1 pressure: the 16 lines
     map to the same L1 set (stride 1024 lines = same L1 index), so only
     8 fit the 8-way L1 — misses go to the LLC where the victim may have
     evicted them. *)
  List.init 16 (fun k -> timed_access h ~core:attacker_core ~line:(attacker_line k))

(* ------------------------------------------------------------------ *)
(* MSHR / queue contention                                             *)
(* ------------------------------------------------------------------ *)

let mshr_channel setup ~victim_floods =
  let h = make_hierarchy setup ~dram:const_dram in
  (* The victim keeps as many misses in flight as its L1 allows, to
     fresh lines so every one reaches the LLC and DRAM. *)
  let next_victim = ref 0 in
  let victim_driver () =
    if victim_floods && Hierarchy.can_accept h ~core:victim_core then begin
      incr next_victim;
      Hierarchy.request h ~core:victim_core
        ~line:(victim_base_line + (!next_victim * 517))
        ~store:false ~id:!next_victim
    end;
    ignore (Hierarchy.take_completions h ~core:victim_core)
  in
  (* The attacker times a stream of its own misses (fresh lines). *)
  List.init 24 (fun k ->
      timed_access ~while_waiting:victim_driver h ~core:attacker_core
        ~line:(attacker_base_line + (k * 131)))

(* ------------------------------------------------------------------ *)
(* DRAM bank locality                                                  *)
(* ------------------------------------------------------------------ *)

let dram_bank_channel ~reordering ~victim_same_bank =
  let dram =
    if reordering then Hierarchy.Reorder_dram Fr_fcfs.default_config
    else const_dram
  in
  let h = make_hierarchy mi6_setup ~dram in
  let banks = Fr_fcfs.default_config.Fr_fcfs.banks in
  (* Attacker misses always target bank 0 (line multiple of #banks). *)
  let attacker_line k = attacker_base_line + (k * 129 * banks) in
  let victim_bank = if victim_same_bank then 0 else banks / 2 in
  let next_victim = ref 0 in
  let victim_driver () =
    if Hierarchy.can_accept h ~core:victim_core then begin
      incr next_victim;
      (* Fresh victim lines confined to one bank. *)
      let line = victim_base_line + (!next_victim * 97 * banks) + victim_bank in
      Hierarchy.request h ~core:victim_core ~line ~store:false ~id:!next_victim
    end;
    ignore (Hierarchy.take_completions h ~core:victim_core)
  in
  List.init 24 (fun k ->
      timed_access ~while_waiting:victim_driver h ~core:attacker_core
        ~line:(attacker_line (k + 1)))

(* ------------------------------------------------------------------ *)
(* Victim-timeline capture                                             *)
(* ------------------------------------------------------------------ *)

type attacker = A_idle | A_flood | A_burst | A_sweep

let all_attackers = [ A_idle; A_flood; A_burst; A_sweep ]

let attacker_name = function
  | A_idle -> "idle"
  | A_flood -> "flood"
  | A_burst -> "burst"
  | A_sweep -> "sweep"

let attacker_of_name s =
  List.find_opt (fun a -> attacker_name a = String.lowercase_ascii s)
    all_attackers

(* Victim-owned DRAM traffic: commands for lines inside the victim's
   region (DRAM events carry no core attribution, only addresses). *)
let victim_region_lines =
  geometry.Addr.region_bytes / Addr.line_bytes

let victim_owns_line line =
  line >= victim_base_line && line < victim_base_line + victim_region_lines

let victim_event vcore ev =
  match Trace.event_core ev with
  | Some c -> c = vcore
  | None -> (
    match ev with
    | Trace.Dram_cmd { line; _ } -> victim_owns_line line
    | _ -> false)

let victim_observation ?(on_tick = fun _ -> ()) setup ~attacker =
  let trace =
    Trace.create ~capacity:(1 lsl 16) ~filter:[ Trace.Llc; Trace.Dram ] ()
  in
  let h = make_hierarchy ~trace setup ~dram:const_dram in
  (* Roles swapped relative to the other experiments: the victim sits on
     the HIGHER core index, where the baseline mux's lower-core-first
     unfairness can starve it whenever the attacker is busy.  MI6's
     round-robin arbiter must make the position irrelevant. *)
  let vcore = 1 and acore = 0 in
  let next_attacker = ref 0 in
  (* Each behaviour stresses a different shared structure: [A_flood]
     keeps maximal misses in flight (MSHR + arbiter pressure), [A_burst]
     alternates 256-cycle storms with silence (arbitration-phase
     pressure), [A_sweep] loops over a small working set so most traffic
     hits in the LLC (pipeline/queue pressure without DRAM). *)
  let attacker_driver () =
    (match attacker with
    | A_idle -> ()
    | A_flood ->
      if Hierarchy.can_accept h ~core:acore then begin
        incr next_attacker;
        Hierarchy.request h ~core:acore
          ~line:(attacker_base_line + (!next_attacker * 517))
          ~store:false ~id:!next_attacker
      end
    | A_burst ->
      if (Hierarchy.now h / 256) land 1 = 0 && Hierarchy.can_accept h ~core:acore
      then begin
        incr next_attacker;
        Hierarchy.request h ~core:acore
          ~line:(attacker_base_line + (!next_attacker * 517))
          ~store:false ~id:!next_attacker
      end
    | A_sweep ->
      if Hierarchy.can_accept h ~core:acore then begin
        incr next_attacker;
        Hierarchy.request h ~core:acore
          ~line:(attacker_base_line + (!next_attacker mod 24 * 131))
          ~store:false ~id:!next_attacker
      end);
    ignore (Hierarchy.take_completions h ~core:acore)
  in
  (* The victim runs a fixed access script: bursts of 4 concurrent
     misses (so it occupies shared LLC structures for whole windows, not
     single cycles), 8 rounds. *)
  for round = 0 to 7 do
    let issued = ref 0 and completed = ref 0 in
    let budget = ref 100_000 in
    while !completed < 4 do
      decr budget;
      if !budget = 0 then failwith "Noninterference: victim burst stuck";
      if !issued < 4 && Hierarchy.can_accept h ~core:vcore then begin
        incr issued;
        Hierarchy.request h ~core:vcore
          ~line:(victim_base_line + (round * 8) + (!issued * 131))
          ~store:false ~id:!issued
      end;
      attacker_driver ();
      Hierarchy.tick h;
      on_tick h;
      completed :=
        !completed + List.length (Hierarchy.take_completions h ~core:vcore)
    done
  done;
  (* The victim's view: every cycle-stamped LLC event attributed to its
     core, plus DRAM commands for its own lines. *)
  let events =
    List.filter (fun (_, ev) -> victim_event vcore ev) (Trace.events trace)
  in
  (events, Trace.dropped trace, Trace.dominant_dropped trace)

let victim_llc_events setup ~attacker =
  let events, drops, _dominant = victim_observation setup ~attacker in
  (events, drops)

let leaks observations =
  match observations with
  | [] -> false
  | first :: rest -> List.exists (fun o -> o <> first) rest

(* ------------------------------------------------------------------ *)
(* Audit grid                                                          *)
(* ------------------------------------------------------------------ *)

type audit_cell = {
  cell_setup_name : string;
  cell_setup : llc_setup;
  cell_attacker : attacker;
}

let audit_setups = [ ("baseline", baseline_setup); ("mi6", mi6_setup) ]

let audit_grid ?(setups = audit_setups) ~attackers () =
  (* Canonical enumeration: setups in given order, the idle reference
     first within each, then the requested behaviours in [all_attackers]
     order with duplicates dropped.  Every capture in the grid is
     self-contained (each cell builds its own hierarchy and trace ring),
     so a pool may run the cells in any order; consumers index results by
     cell and the report stays deterministic. *)
  let attackers =
    List.filter
      (fun a -> a <> A_idle && List.mem a attackers)
      all_attackers
  in
  List.concat_map
    (fun (cell_setup_name, cell_setup) ->
      List.map
        (fun cell_attacker -> { cell_setup_name; cell_setup; cell_attacker })
        (A_idle :: attackers))
    setups

let audit_cell_name c =
  c.cell_setup_name ^ "/" ^ attacker_name c.cell_attacker

let run_audit_cell ?on_tick c =
  victim_observation ?on_tick c.cell_setup ~attacker:c.cell_attacker
