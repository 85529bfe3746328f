(* The traced run: per-layer metrics, kept apart from the timed run.

   It attaches [Selfprof] (host time and allocation per simulation phase)
   and, on round 0 only, [Occupancy] (quiet-cycle detector, ~10 µs per
   cycle), times each profiled pass against the same work unprofiled,
   and drives single components with inputs taken from the workload.
   Every simulated result is still checked against the reference. *)

open Mi6_core
open Common
module Stats = Mi6_util.Stats
module Selfprof = Mi6_obs.Selfprof
module Occupancy = Mi6_obs.Occupancy
module Hierarchy = Mi6_llc.Hierarchy
module Llc = Mi6_llc.Llc
module Uop = Mi6_ooo.Uop

(* Component benchmarks build the F+P+M+A machine's parts. *)
let drv = Config.timing ~cores:1 Config.Fpma

(* --- Selfprof phases and counters ------------------------------------ *)

let core_phases =
  Selfprof.[ ph_fetch; ph_rename; ph_issue; ph_exec; ph_mem; ph_commit; ph_purge ]

(* [external_s] is the same profiled work timed by the benchmark's own
   clock: the phases must sum to it. *)
let phase_metrics sp ~external_s =
  let cycles = float_of_int (Selfprof.cycles sp) in
  let phases = List.init Selfprof.n_phases Fun.id in
  let secs i = Selfprof.phase_seconds sp i in
  let per_phase i =
    let n = Selfprof.phase_name i in
    let n = if List.mem i core_phases then "core." ^ n else n in
    [
      (n ^ ".ns_per_cycle", 1e9 *. ratio (secs i) cycles, "ns");
      ( n ^ ".words_per_cycle",
        ratio (words_of_bytes (Selfprof.phase_alloc_bytes sp i)) cycles,
        "words" );
    ]
  in
  let all = sum (List.map secs phases) in
  List.concat_map per_phase phases
  @ [
      ("core.phase_share", ratio (sum (List.map secs core_phases)) all, "ratio");
      ("selfprof.phase_sum_ratio", ratio all external_s, "ratio");
    ]

let count_metrics stats ~cycles ~instrs =
  let get = Stats.get stats in
  let pki n = ratio (1000.0 *. float_of_int (get n)) (float_of_int instrs) in
  [
    ("core.ipc", ratio (float_of_int instrs) (float_of_int cycles), "instr/cycle");
    ("core.mispredicts_pki", pki "core.mispredicts", "1/kinstr");
    ("core.purge_stall_cycles", float_of_int (get "core.purge_stall_cycles"), "cycles");
    ("l1d.misses_pki", pki "l1d.0.misses", "1/kinstr");
    ("llc.requests_pki", pki "llc.requests", "1/kinstr");
    ("llc.misses_pki", pki "llc.misses", "1/kinstr");
    ("llc.mshr_alloc_stalls", float_of_int (get "llc.mshr_alloc_stalls"), "count");
    ("dram.reads_pki", pki "dram.reads", "1/kinstr");
    (* Walk counts, not the walk-latency histograms (see README.md). *)
    ("ptw.walks_pki", pki "core.l2tlb_misses", "1/kinstr");
  ]

(* --- Component benchmarks ------------------------------------------- *)

let create_ms () =
  for _ = 1 to 40 do
    Span.run "tmachine.create" (fun () ->
        ignore
          (Tmachine.create drv ~streams:[| (fun () -> None) |]
             ~stats:(Stats.create ())))
  done;
  1000.0 *. median (Span.durations "tmachine.create")

let lines_of uops =
  Array.of_list
    (List.filter_map
       (fun u ->
         match u.Uop.kind with
         | Uop.Load { addr } -> Some (addr / Mi6_mem.Addr.line_bytes, false)
         | Uop.Store { addr } -> Some (addr / Mi6_mem.Addr.line_bytes, true)
         | _ -> None)
       uops)

(* (pc, conditional, taken, target) of every control µop. *)
let branches_of uops =
  Array.of_list
    (List.filter_map
       (fun u ->
         match u.Uop.kind with
         | Uop.Branch { taken; target } -> Some (u.Uop.pc, true, taken, target)
         | Uop.Jump { target; _ } -> Some (u.Uop.pc, false, true, target)
         | _ -> None)
       uops)

(* Replay the workload's load/store lines through a [Hierarchy], one
   request per cycle whenever the L1 accepts; returns cycles taken. *)
let hier_replay ?(selfprof = Selfprof.null) lines =
  let h =
    Hierarchy.create ~selfprof ~l1:drv.Config.l1 ~llc:drv.Config.llc
      ~security:drv.Config.llc_security
      ~dram:
        (Hierarchy.Const_dram
           { latency = drv.Config.dram_latency;
             max_outstanding = drv.Config.dram_outstanding })
      ~stats:(Stats.create ()) ()
  in
  let n = Array.length lines in
  let next = ref 0 and completed = ref 0 in
  Selfprof.run_begin selfprof;
  while !completed < n && Hierarchy.now h < 1_000 * (n + 10) do
    if !next < n && Hierarchy.can_accept h ~core:0 then begin
      let line, store = lines.(!next) in
      Hierarchy.request h ~core:0 ~line ~store ~id:!next;
      incr next
    end;
    Hierarchy.tick h;
    completed := !completed + List.length (Hierarchy.take_completions h ~core:0)
  done;
  Selfprof.run_end selfprof ~cycles:(Hierarchy.now h) ~instrs:n;
  if !completed < n then failwith "perfbench: hierarchy replay timed out";
  Hierarchy.now h

let hier_metrics lines =
  let n = float_of_int (Array.length lines) in
  let w0 = Gc.minor_words () in
  ignore (Span.run "hier.replay" (fun () -> hier_replay lines));
  let words = Gc.minor_words () -. w0 in
  let sp = Selfprof.create () in
  let cycles =
    Span.run "hier.replay.selfprof" (fun () -> hier_replay ~selfprof:sp lines)
  in
  [
    ("hier.ns_per_access", 1e9 *. ratio (Span.total "hier.replay") n, "ns");
    ("hier.words_per_access", ratio words n, "words");
    ( "llc.busy_tick_ns",
      1e9 *. ratio (Selfprof.phase_seconds sp Selfprof.ph_llc) (float_of_int cycles),
      "ns" );
  ]

let predictor_ns_per_branch branches =
  let tp = Mi6_ooo.Tournament.create () and btb = Mi6_ooo.Btb.create () in
  let n = Array.length branches in
  let reps = 1 + (200_000 / (n + 1)) in
  Span.run "predictor" (fun () ->
      for _ = 1 to reps do
        Array.iter
          (fun (pc, cond, taken, target) ->
            if cond then begin
              ignore (Mi6_ooo.Tournament.predict tp ~pc);
              Mi6_ooo.Tournament.update tp ~pc ~taken
            end;
            ignore (Mi6_ooo.Btb.predict btb ~pc);
            if taken then Mi6_ooo.Btb.update btb ~pc ~target)
          branches
      done);
  1e9 *. ratio (Span.total "predictor") (float_of_int (reps * n))

let llc_idle_tick_ns () =
  let stats = Stats.create () in
  let links =
    Array.init drv.Config.llc.Llc.cores (fun _ ->
        Mi6_coherence.Link.create ~depth:4)
  in
  let dram =
    Mi6_dram.Controller.constant ~latency:drv.Config.dram_latency
      ~max_outstanding:drv.Config.dram_outstanding ~stats ()
  in
  let llc = Llc.create drv.Config.llc ~security:drv.Config.llc_security ~links ~dram ~stats in
  let n = 100_000 in
  Span.run "llc.idle_tick" (fun () ->
      for now = 1 to n do
        Llc.tick llc ~now
      done);
  1e9 *. Span.total "llc.idle_tick" /. float_of_int n

(* Component benchmarks fed with the workload's own µops. *)
let component_metrics uops =
  hier_metrics (lines_of uops)
  @ [
      ("predictor.ns_per_branch", predictor_ns_per_branch (branches_of uops), "ns");
      ("llc.idle_tick_ns", llc_idle_tick_ns (), "ns");
    ]

(* --- Workloads --------------------------------------------------------- *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable plain_s : float;  (** unprofiled simulation, same work as [prof_s] *)
  mutable prof_s : float;
  stats0 : Stats.t;  (** round-0 counters of the profiled runs *)
  mutable cycles0 : int;
  mutable instrs0 : int;
}

let new_acc () =
  { attempted = 0; failed = 0; plain_s = 0.0; prof_s = 0.0;
    stats0 = Stats.create (); cycles0 = 0; instrs0 = 0 }

let note acc ok =
  acc.attempted <- acc.attempted + 1;
  if not ok then acc.failed <- acc.failed + 1

(* More profiled rounds after round 0, while time remains. *)
let more_rounds ~deadline ~round0_s f =
  if now () +. round0_s <= deadline then
    ignore (Timed.rounds ~seconds:(deadline -. now ()) (fun r -> f (r + 1)))

(* [host.calib_ms] records the host's speed during the traced run: the
   calibration kernel's median time (see [Common.calibrate]). *)
let summary acc metrics =
  let calib = List.init 5 (fun _ -> calibrate ()) in
  {
    Timed.attempted = acc.attempted;
    failed = acc.failed;
    metrics = metrics @ [ ("host.calib_ms", 1000.0 *. median calib, "ms") ];
  }

let spec reference cells ~seed ~seconds =
  let deadline = now () +. seconds in
  let acc = new_acc () and sp = Selfprof.create () in
  let pair round (bench, variant) =
    let seed = pool_seed ~seed ~round in
    let a =
      Span.run "cell.untraced" (fun () ->
          Timed.run_cell reference ~bench ~variant ~seed)
    in
    let b =
      Span.run "cell.selfprof" (fun () ->
          Timed.run_cell ~selfprof:sp reference ~bench ~variant ~seed)
    in
    note acc a.ok;
    note acc b.ok;
    acc.plain_s <- acc.plain_s +. a.run_s;
    acc.prof_s <- acc.prof_s +. b.run_s;
    if round = 0 then begin
      Stats.merge ~into:acc.stats0 b.result.stats;
      acc.cycles0 <- acc.cycles0 + b.result.cycles;
      acc.instrs0 <- acc.instrs0 + b.result.instrs
    end
  in
  let t0 = now () in
  List.iter (pair 0) cells;
  let round0_s = now () -. t0 and plain0_s = acc.plain_s in
  let oc = Occupancy.create () in
  let occ_s =
    sum
      (List.map
         (fun (bench, variant) ->
           let c =
             Span.run "cell.occupancy" (fun () ->
                 Timed.run_cell ~occupancy:oc reference ~bench ~variant
                   ~seed:(pool_seed ~seed ~round:0))
           in
           note acc c.ok;
           c.run_s)
         cells)
  in
  let benches = List.sort_uniq compare (List.map fst cells) in
  let stream bench = Tmachine.spec_stream ~seed:(pool_seed ~seed ~round:0) ~core:0 ~bench in
  let synth_words = ref 0.0 and synth_uops = ref 0 in
  List.iter
    (fun bench ->
      let s = stream bench ~limit:(warmup + measure) () in
      let w0 = Gc.minor_words () in
      Span.run "synth" (fun () ->
          while Option.is_some (s ()) do
            incr synth_uops
          done);
      synth_words := !synth_words +. (Gc.minor_words () -. w0))
    benches;
  let component_uops =
    List.concat_map
      (fun bench ->
        let s = stream bench ~limit:warmup () in
        List.of_seq (Seq.of_dispenser s))
      benches
  in
  let create = create_ms () in
  let components = component_metrics component_uops in
  more_rounds ~deadline ~round0_s (fun r -> List.iter (pair r) cells);
  let nu = float_of_int !synth_uops in
  summary acc
    (phase_metrics sp ~external_s:acc.prof_s
    @ count_metrics acc.stats0 ~cycles:acc.cycles0 ~instrs:acc.instrs0
    @ [
        ("tmachine.quiet_cycle_frac", Occupancy.quiet_fraction oc, "ratio");
        ("tmachine.create_ms", create, "ms");
        ( "tmachine.create_share",
          ratio
            (create /. 1000.0 *. float_of_int (List.length (Span.durations "cell.untraced")))
            (Span.total "cell.untraced"),
          "ratio" );
        ("tmachine.occupancy_overhead_ratio", ratio occ_s plain0_s, "ratio");
        ("synth.ns_per_uop", 1e9 *. ratio (Span.total "synth") nu, "ns");
        ("synth.words_per_uop", ratio !synth_words nu, "words");
        (* spec cells generate no enclave bodies and run no schedule checks *)
        ("body.gen_ms", 0.0, "ms");
        ("schedule.check_ms", 0.0, "ms");
        ("trace.overhead_ratio", ratio acc.prof_s acc.plain_s, "ratio");
      ]
    @ components)

(* [Schedule.check] takes no profiler, so the profiled ni-sched work is a
   replay of what each check simulates: the schedule's enclave body with
   every attacker window (Enter marker, attacker µops, Exit marker)
   appended after it, on a fresh machine of the schedule's variant. *)
let windows (s : Schedule.t) =
  let marker pc kind = { Uop.pc; kind; dst = None; srcs = [] } in
  List.concat_map
    (fun a ->
      let us = Schedule.attacker_uops a in
      let pc = (List.hd us).Uop.pc in
      (marker (pc - 8) Uop.Enter_kernel :: us) @ [ marker (pc - 4) Uop.Exit_kernel ])
    (List.map (fun p -> p.Schedule.attacker) s.Schedule.points @ [ s.Schedule.final ])

let replay ?(selfprof = Selfprof.null) ?occupancy variant uops =
  let stats = Stats.create () in
  let q = ref uops in
  let stream () =
    match !q with
    | [] -> None
    | u :: tl ->
      q := tl;
      Some u
  in
  let m =
    Tmachine.create ~selfprof ?occupancy (Config.timing ~cores:1 variant)
      ~streams:[| stream |] ~stats
  in
  let t0 = now () in
  Selfprof.run_begin selfprof;
  let cycles = Tmachine.run m ~max_cycles:4_000_000 in
  let instrs = Tmachine.committed m in
  Selfprof.run_end selfprof ~cycles ~instrs;
  (stats, cycles, instrs, now () -. t0)

let ni reference ~seed ~seconds =
  let deadline = now () +. seconds in
  let acc = new_acc () and sp = Selfprof.create () and oc = Occupancy.create () in
  let cex = counterexample () in
  let round0_uops = ref [] and occ_s = ref 0.0 and plain0_s = ref 0.0 in
  let one round ~expected ~falsifies sched =
    let body =
      Span.run "body.gen" (fun () ->
          Mi6_progen.Body.uops_of_seed sched.Schedule.body_seed)
    in
    let v = Span.run "schedule.check" (fun () -> Schedule.check ~body sched) in
    note acc
      (v.v_falsified = falsifies
      && Reference.ni_matches expected v ~body_len:(List.length body));
    let uops = body @ windows sched and variant = sched.Schedule.variant in
    let _, _, _, plain = Span.run "replay.untraced" (fun () -> replay variant uops) in
    let stats, cycles, instrs, prof =
      Span.run "replay.selfprof" (fun () -> replay ~selfprof:sp variant uops)
    in
    acc.plain_s <- acc.plain_s +. plain;
    acc.prof_s <- acc.prof_s +. prof;
    if round = 0 then begin
      Stats.merge ~into:acc.stats0 stats;
      acc.cycles0 <- acc.cycles0 + cycles;
      acc.instrs0 <- acc.instrs0 + instrs;
      round0_uops := uops :: !round0_uops;
      plain0_s := !plain0_s +. plain;
      let _, _, _, s =
        Span.run "replay.occupancy" (fun () -> replay ~occupancy:oc variant uops)
      in
      occ_s := !occ_s +. s
    end
  in
  let round r =
    let s = pool_seed ~seed ~round:r in
    let scheds =
      Span.run "ni_gen.sample" (fun () ->
          Mi6_progen.Ni_gen.sample ~variant:Config.Fpma ~seed:s ~count:ni_count ())
    in
    let expected = Reference.ni_entries reference ~seed:s in
    List.iteri (fun i sch -> one r ~expected:expected.(i) ~falsifies:false sch) scheds;
    one r ~expected:reference.Reference.counterexample ~falsifies:true cex
  in
  let t0 = now () in
  round 0;
  let round0_s = now () -. t0 in
  let create = create_ms () in
  let components = component_metrics (List.concat (List.rev !round0_uops)) in
  more_rounds ~deadline ~round0_s round;
  let checks = Span.durations "schedule.check" in
  summary acc
    (phase_metrics sp ~external_s:acc.prof_s
    @ count_metrics acc.stats0 ~cycles:acc.cycles0 ~instrs:acc.instrs0
    @ [
        ("tmachine.quiet_cycle_frac", Occupancy.quiet_fraction oc, "ratio");
        ("tmachine.create_ms", create, "ms");
        (* each check builds two machines: the body's and the reference's *)
        ( "tmachine.create_share",
          ratio (2.0 *. create /. 1000.0 *. float_of_int (List.length checks)) (sum checks),
          "ratio" );
        ("tmachine.occupancy_overhead_ratio", ratio !occ_s !plain0_s, "ratio");
        (* ni-sched feeds enclave bodies, not Synth streams *)
        ("synth.ns_per_uop", 0.0, "ns");
        ("synth.words_per_uop", 0.0, "words");
        ("body.gen_ms", 1000.0 *. median (Span.durations "body.gen"), "ms");
        ("schedule.check_ms", 1000.0 *. median checks, "ms");
        ("trace.overhead_ratio", ratio acc.prof_s acc.plain_s, "ratio");
      ]
    @ components)
