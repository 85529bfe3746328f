(* The headline security property (paper Property 1 / Section 5): on the
   MI6 configuration, an attacker's timing observations are bit-identical
   whatever the victim does; on the baseline RiscyOO configuration each of
   the paper's channels demonstrably leaks. *)

open Mi6_llc
open Mi6_cache
open Mi6_core
module Channel = Mi6_obs.Channel

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prime + probe (LLC set contention, Section 5.2)                      *)
(* ------------------------------------------------------------------ *)

let test_prime_probe_baseline_leaks () =
  let t = Noninterference.prime_probe Noninterference.baseline_setup ~secret:true in
  let f = Noninterference.prime_probe Noninterference.baseline_setup ~secret:false in
  check_bool "baseline LLC leaks the secret" true (Noninterference.leaks [ t; f ]);
  (* The leak is through *slow* probes: evictions by the victim. *)
  let slow l = List.filter (fun x -> x > 100) l in
  check_bool "secret=1 causes slow probes" true (List.length (slow t) > 0);
  check_bool "more slow probes when the victim shares the set" true
    (List.length (slow t) > List.length (slow f))

let test_prime_probe_mi6_noninterference () =
  let t = Noninterference.prime_probe Noninterference.mi6_setup ~secret:true in
  let f = Noninterference.prime_probe Noninterference.mi6_setup ~secret:false in
  check_bool "MI6 set partitioning closes the channel" false
    (Noninterference.leaks [ t; f ])

(* ------------------------------------------------------------------ *)
(* MSHR / arbitration contention (Sections 5.2, 5.4)                    *)
(* ------------------------------------------------------------------ *)

let test_mshr_baseline_leaks () =
  let busy = Noninterference.mshr_channel Noninterference.baseline_setup ~victim_floods:true in
  let idle = Noninterference.mshr_channel Noninterference.baseline_setup ~victim_floods:false in
  check_bool "baseline queue/MSHR contention leaks" true
    (Noninterference.leaks [ busy; idle ]);
  (* The attacker is slower when the victim floods. *)
  let sum = List.fold_left ( + ) 0 in
  check_bool "flooding delays the attacker" true (sum busy > sum idle)

let test_mshr_mi6_noninterference () =
  let busy = Noninterference.mshr_channel Noninterference.mi6_setup ~victim_floods:true in
  let idle = Noninterference.mshr_channel Noninterference.mi6_setup ~victim_floods:false in
  check_bool
    "MI6 (partitioned MSHRs + RR arbiter + split UQ + 1-cycle DQ) closes it"
    false
    (Noninterference.leaks [ busy; idle ])

(* ------------------------------------------------------------------ *)
(* DRAM bank reordering (Section 5.2)                                   *)
(* ------------------------------------------------------------------ *)

let test_dram_reordering_leaks () =
  let same = Noninterference.dram_bank_channel ~reordering:true ~victim_same_bank:true in
  let diff = Noninterference.dram_bank_channel ~reordering:true ~victim_same_bank:false in
  check_bool "FR-FCFS leaks the victim's bank locality" true
    (Noninterference.leaks [ same; diff ])

let test_dram_constant_noninterference () =
  let same = Noninterference.dram_bank_channel ~reordering:false ~victim_same_bank:true in
  let diff = Noninterference.dram_bank_channel ~reordering:false ~victim_same_bank:false in
  check_bool "constant-latency DRAM closes the bank channel" false
    (Noninterference.leaks [ same; diff ])

(* ------------------------------------------------------------------ *)
(* Isolation structure ablation: each Figure 3 fix matters              *)
(* ------------------------------------------------------------------ *)

(* Dropping the round-robin arbiter from the otherwise-secure LLC
   re-opens interference for the low-priority attacker. *)
let test_ablation_arbiter_required () =
  let setup =
    {
      Noninterference.mi6_setup with
      Noninterference.security =
        { Llc.mi6_security with Llc.round_robin_arbiter = false };
    }
  in
  let busy = Noninterference.mshr_channel setup ~victim_floods:true in
  let idle = Noninterference.mshr_channel setup ~victim_floods:false in
  check_bool "without the RR arbiter the channel re-opens" true
    (Noninterference.leaks [ busy; idle ])

(* Keeping the secure LLC structures but the *flat* index re-opens
   prime+probe: set partitioning is what isolates the arrays. *)
let test_ablation_partitioning_required () =
  let setup =
    {
      Noninterference.mi6_setup with
      Noninterference.index = Index.flat ~set_bits:10;
    }
  in
  let t = Noninterference.prime_probe setup ~secret:true in
  let f = Noninterference.prime_probe setup ~secret:false in
  check_bool "without set partitioning prime+probe re-opens" true
    (Noninterference.leaks [ t; f ])

(* ------------------------------------------------------------------ *)
(* Property: attacker observations invariant over random victims        *)
(* ------------------------------------------------------------------ *)

let prop_mi6_invariant_over_victims =
  QCheck.Test.make
    ~name:"MI6 prime+probe observation is a constant function of the victim"
    ~count:8 QCheck.bool
    (fun secret ->
      let reference =
        Noninterference.prime_probe Noninterference.mi6_setup ~secret:false
      in
      Noninterference.prime_probe Noninterference.mi6_setup ~secret = reference)

let prop_mi6_mshr_invariant =
  QCheck.Test.make
    ~name:"MI6 miss-timing observation is a constant function of the victim"
    ~count:6 QCheck.bool
    (fun floods ->
      let reference =
        Noninterference.mshr_channel Noninterference.mi6_setup
          ~victim_floods:false
      in
      Noninterference.mshr_channel Noninterference.mi6_setup
        ~victim_floods:floods
      = reference)

(* ------------------------------------------------------------------ *)
(* Leakage audit (Section 5.4 via the stream-diff auditor)              *)
(* ------------------------------------------------------------------ *)

let victim_stream setup attacker =
  let events, drops =
    Noninterference.victim_llc_events setup ~attacker
  in
  Alcotest.(check int)
    (Printf.sprintf "no trace drops under %s"
       (Noninterference.attacker_name attacker))
    0 drops;
  events

let test_audit_mi6_clean_under_every_attacker () =
  let reference =
    victim_stream Noninterference.mi6_setup Noninterference.A_idle
  in
  check_bool "victim observed at all" true (reference <> []);
  List.iter
    (fun attacker ->
      let r =
        Mi6_obs.Audit.diff ~label_a:"idle"
          ~label_b:(Noninterference.attacker_name attacker)
          reference
          (victim_stream Noninterference.mi6_setup attacker)
      in
      check_bool
        (Printf.sprintf "mi6 timing-independent vs %s"
           (Noninterference.attacker_name attacker))
        true (Mi6_obs.Audit.clean r))
    [ Noninterference.A_flood; Noninterference.A_burst;
      Noninterference.A_sweep ]

let test_audit_baseline_localizes_leak () =
  let reference =
    victim_stream Noninterference.baseline_setup Noninterference.A_idle
  in
  let r =
    Mi6_obs.Audit.diff ~label_a:"idle" ~label_b:"flood" reference
      (victim_stream Noninterference.baseline_setup Noninterference.A_flood)
  in
  check_bool "baseline leaks" false (Mi6_obs.Audit.clean r);
  (* The flood perturbs the victim's own LLC traffic, not just the DRAM
     commands for its lines. *)
  let leaking = Mi6_obs.Audit.leaking_channels r in
  check_bool "an LLC structure diverges" true
    (List.exists (fun ch -> List.mem ch leaking) Channel.[ Arbiter; Mshr; Uq_dq ]);
  (* The auditor must name the structure where the leak enters — on the
     baseline the shared pipeline-entry mux delays the victim's very
     first grant, so the arbiter diverges no later than anything else. *)
  match Mi6_obs.Audit.first_leaking_channel r with
  | Some ch ->
    check_bool
      (Printf.sprintf "leak enters through a shared LLC structure, got %s"
         (Channel.name ch))
      true
      (List.mem ch Channel.[ Arbiter; Mshr; Uq_dq; Dram ])
  | None -> Alcotest.fail "divergent report without a leaking channel"

(* The whole audit grid (both setups under every attacker) with the
   LLC's structural invariants checked after every cycle. *)
let test_audit_grid_llc_invariants () =
  let check h =
    match Llc.check_invariants (Hierarchy.llc h) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "cycle %d: %s" (Hierarchy.now h) msg
  in
  List.iter
    (fun cell -> ignore (Noninterference.run_audit_cell ~on_tick:check cell))
    (Noninterference.audit_grid ~attackers:Noninterference.all_attackers ())

let test_attacker_names_roundtrip () =
  List.iter
    (fun a ->
      match
        Noninterference.attacker_of_name (Noninterference.attacker_name a)
      with
      | Some a' -> check_bool "roundtrip" true (a = a')
      | None -> Alcotest.fail "attacker name not parseable")
    Noninterference.all_attackers;
  check_bool "unknown rejected" true
    (Noninterference.attacker_of_name "nonsense" = None)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mi6_noninterference"
    [
      ( "prime_probe",
        [
          Alcotest.test_case "baseline leaks" `Quick
            test_prime_probe_baseline_leaks;
          Alcotest.test_case "mi6 noninterference" `Quick
            test_prime_probe_mi6_noninterference;
        ] );
      ( "mshr_contention",
        [
          Alcotest.test_case "baseline leaks" `Quick test_mshr_baseline_leaks;
          Alcotest.test_case "mi6 noninterference" `Quick
            test_mshr_mi6_noninterference;
        ] );
      ( "dram_banks",
        [
          Alcotest.test_case "reordering leaks" `Quick test_dram_reordering_leaks;
          Alcotest.test_case "constant latency safe" `Quick
            test_dram_constant_noninterference;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "rr arbiter required" `Quick
            test_ablation_arbiter_required;
          Alcotest.test_case "set partitioning required" `Quick
            test_ablation_partitioning_required;
        ] );
      ( "audit",
        [
          Alcotest.test_case "mi6 clean under every attacker" `Quick
            test_audit_mi6_clean_under_every_attacker;
          Alcotest.test_case "baseline leak localized" `Quick
            test_audit_baseline_localizes_leak;
          Alcotest.test_case "attacker names roundtrip" `Quick
            test_attacker_names_roundtrip;
          Alcotest.test_case "grid keeps LLC invariants" `Quick
            test_audit_grid_llc_invariants;
        ] );
      ( "properties",
        qsuite [ prop_mi6_invariant_over_victims; prop_mi6_mshr_invariant ] );
    ]
