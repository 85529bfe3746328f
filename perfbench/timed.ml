(* The timed run: end-to-end metrics with every profiler off.  Rounds of
   the workload's fixed work repeat until the next round would overrun
   [seconds]; each round draws a new input from the reference pool, and
   its host times are scaled by the host speed measured around it. *)

open Mi6_core
open Common
module Stats = Mi6_util.Stats

(* --- spec cells ----------------------------------------------------- *)

type cell = {
  result : Tmachine.result;
  setup_s : float;  (** cell start → first µop pulled (first simulated cycle) *)
  run_s : float;  (** first µop pulled → run end *)
  window_s : float;  (** first measured µop pulled → run end *)
  slices_ms : float list;
  words : float;  (** minor words allocated in the measured window *)
  promoted : float;
  ok : bool;
}

(* [run_cell] drives [Tmachine.run_stream] exactly as [Tmachine.run_spec]
   does, through a stream wrapper that stamps the host clock at the
   first pull, at the first measured µop, and every [slice] µops after. *)
let run_cell ?selfprof ?occupancy reference ~bench ~variant ~seed =
  let nslices = measure / slice in
  let marks = Array.make (nslices + 2) Float.nan in
  let gc0 = Array.make 2 0.0 in
  let t0 = now () in
  let timing = Config.timing ~cores:1 variant in
  let inner =
    Tmachine.spec_stream ~seed ~core:0 ~bench ~limit:(warmup + measure) ()
  in
  let pulled = ref 0 in
  let stream () =
    let i = !pulled in
    pulled := i + 1;
    if i = 0 then marks.(0) <- now ();
    if i >= warmup && i <= warmup + measure && (i - warmup) mod slice = 0
    then begin
      let k = (i - warmup) / slice in
      if k = 0 then begin
        gc0.(0) <- Gc.minor_words ();
        gc0.(1) <- promoted_words ()
      end;
      marks.(k + 1) <- now ()
    end;
    inner ()
  in
  let result =
    Tmachine.run_stream ?selfprof ?occupancy ~timing ~stream ~warmup ~measure ()
  in
  let t_end = now () in
  let words = Gc.minor_words () -. gc0.(0) in
  let promoted = promoted_words () -. gc0.(1) in
  let slices_ms =
    List.filter_map
      (fun k ->
        let d = marks.(k + 2) -. marks.(k + 1) in
        if Float.is_nan d then None else Some (d *. 1000.0))
      (List.init nslices Fun.id)
  in
  let ok =
    List.length slices_ms = nslices
    && Reference.spec_invariants ~timing result
    && Reference.spec_matches reference ~bench ~variant ~seed result
  in
  if not ok then
    Printf.eprintf "perfbench: %s does not match its reference\n%!"
      (Reference.spec_key ~bench ~variant ~seed);
  {
    result;
    setup_s = marks.(0) -. t0;
    run_s = t_end -. marks.(0);
    window_s = t_end -. marks.(1);
    slices_ms;
    words;
    promoted;
    ok;
  }

(* Rounds until the next one would pass the deadline (at least [min]). *)
let rounds ?(min = 1) ~seconds f =
  let deadline = now () +. seconds in
  let rec go r last acc =
    if r >= min && now () +. last > deadline then List.rev acc
    else begin
      let t = now () in
      let x = f r in
      go (r + 1) (now () -. t) (x :: acc)
    end
  in
  go 0 0.0 []

(* Host speed also swings within a second, by up to 1.6x between kernel
   samples 0.5 s apart, so one sample per round misjudges the round.  The
   kernel is therefore sampled between operations (spec cells, ni checks),
   at most every [calib_every_s], and each operation is scaled by
   [calib_ref_s] over the mean of the two samples bracketing it.  Kernel
   runs are untimed; they take about 5% of a run. *)
let calib_every_s = 0.1

type calib = { mutable times : float list; mutable count : int; mutable last : float }

let new_calib () = { times = []; count = 0; last = neg_infinity }

(* Samples the kernel if [calib_every_s] has passed since the last
   sample (or if [force]), and returns the interval the next operation
   falls in: it lies between samples [i] and [i + 1]. *)
let calib_point ?(force = false) c =
  if force || now () -. c.last >= calib_every_s then begin
    c.times <- calibrate () :: c.times;
    c.count <- c.count + 1;
    c.last <- now ()
  end;
  c.count - 1

(* Closes the run with a last sample and returns the factor that scales
   host times in interval [i]. *)
let calib_factors c =
  ignore (calib_point ~force:true c);
  let a = Array.of_list (List.rev c.times) in
  Printf.printf
    "host: calibration kernel median %.2f ms over %d samples (scaled to %.1f ms)\n"
    (1000.0 *. median (Array.to_list a)) (Array.length a) (1000.0 *. calib_ref_s);
  fun i -> calib_ref_s /. ((a.(i) +. a.(i + 1)) /. 2.0)

(* Allocation and heap figures come from the first rounds of a run, which
   always run, so they repeat exactly for a seed however many rounds the
   host's speed allows: 4 spec rounds (24 or 16 cells), but 12 ni-sched
   rounds (384 checks), because promotion varies more between ni-sched
   inputs (spread 0.085 across seeds over 4 rounds). *)
let spec_fixed_rounds = 4
let ni_fixed_rounds = 12

let first_rounds n rs = List.filteri (fun i _ -> i < n) rs

type summary = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let spec reference cells ~seed ~seconds =
  let heap0 = ref 0.0 and cal = new_calib () in
  let rs =
    rounds ~min:spec_fixed_rounds ~seconds (fun round ->
        let r =
          List.map
            (fun (bench, variant) ->
              let i = calib_point cal in
              (i, run_cell reference ~bench ~variant ~seed:(pool_seed ~seed ~round)))
            cells
        in
        if round = spec_fixed_rounds - 1 then heap0 := peak_heap_mb ();
        r)
  in
  (* every cell with its host-speed factor *)
  let factor = calib_factors cal in
  let all = List.map (fun (i, c) -> (factor i, c)) (List.concat rs) in
  let total f = sum (List.map f all) in
  let cycles = total (fun (_, c) -> float_of_int c.result.cycles)
  and instrs = total (fun (_, c) -> float_of_int c.result.instrs)
  and window = total (fun (k, c) -> k *. c.window_s) in
  let slices = List.concat_map (fun (k, c) -> List.map (( *. ) k) c.slices_ms) all in
  let first f =
    sum (List.map (fun (_, c) -> f c) (List.concat (first_rounds spec_fixed_rounds rs)))
  in
  let first_cycles = first (fun c -> float_of_int c.result.cycles) in
  let nslices = measure / slice in
  {
    attempted = List.length all * nslices;
    failed = nslices * List.length (List.filter (fun (_, c) -> not c.ok) all);
    metrics =
      [
        ("wall_s", window /. float_of_int (List.length rs), "s");
        ("setup_s", median (List.map (fun (k, c) -> k *. c.setup_s) all), "s");
        ("sim_cycles_per_s", ratio cycles window, "1/s");
        ("sim_instrs_per_s", ratio instrs window, "1/s");
        ("op_ms_p50", quantile 0.5 slices, "ms");
        ("op_ms_p90", quantile 0.9 slices, "ms");
        ("alloc_words_per_cycle", ratio (first (fun c -> c.words)) first_cycles, "words");
        ("promoted_words_per_cycle", ratio (first (fun c -> c.promoted)) first_cycles, "words");
        ("peak_heap_mb", !heap0, "MiB");
      ];
  }

(* --- ni-sched checks ------------------------------------------------ *)

type check = {
  c_setup_s : float;
      (** share of schedule sampling + body generation + [Tmachine.create] *)
  c_op_s : float;  (** one [Schedule.check] *)
  c_cycles : int;
  c_instrs : int;
  c_words : float;
  c_promoted : float;
  c_ok : bool;
}

(* [Schedule.check] builds its machines internally, so set-up times one
   [Tmachine.create] of the machine the check builds first. *)
let check_one ~sample_s ~(expected : Reference.ni_entry) ~falsifies sched =
  let t0 = now () in
  let body = Mi6_progen.Body.uops_of_seed sched.Schedule.body_seed in
  let timing = Config.timing ~cores:1 sched.Schedule.variant in
  ignore
    (Tmachine.create timing ~streams:[| (fun () -> None) |]
       ~stats:(Stats.create ()));
  let t1 = now () in
  let w0 = Gc.minor_words () and p0 = promoted_words () in
  let ok, instrs =
    match Schedule.check ~body sched with
    | v ->
      let body_len = List.length body in
      ( v.v_falsified = falsifies && Reference.ni_matches expected v ~body_len,
        Reference.ni_instrs ~body_len v.v_obs v.v_ref_obs )
    | exception Failure msg ->
      prerr_endline ("perfbench: " ^ msg);
      (false, 0)
  in
  let t2 = now () in
  let words = Gc.minor_words () -. w0 and promoted = promoted_words () -. p0 in
  if not ok then
    Printf.eprintf "perfbench: %s does not match its reference\n%!"
      (Schedule.to_string sched);
  {
    c_setup_s = sample_s +. (t1 -. t0);
    c_op_s = t2 -. t1;
    c_cycles = expected.cycles;
    c_instrs = instrs;
    c_words = words;
    c_promoted = promoted;
    c_ok = ok;
  }

(* One round: [ni_count] sampled F+P+M+A schedules, which must all be
   clean, then the committed BASE counterexample, which must falsify. *)
let ni_round reference cal cex ~seed =
  (* the first check's interval also holds the schedule sampling *)
  let i0 = calib_point cal in
  let t0 = now () in
  let scheds = Mi6_progen.Ni_gen.sample ~variant:Config.Fpma ~seed ~count:ni_count () in
  let sample_s = (now () -. t0) /. float_of_int ni_count in
  let expected = Reference.ni_entries reference ~seed in
  List.mapi
    (fun i s ->
      let k = if i = 0 then i0 else calib_point cal in
      (k, check_one ~sample_s ~expected:expected.(i) ~falsifies:false s))
    scheds
  @ [
      (let k = calib_point cal in
       ( k,
         check_one ~sample_s:0.0 ~expected:reference.Reference.counterexample
           ~falsifies:true cex ));
    ]

let ni reference ~seed ~seconds =
  let cex = counterexample () in
  let heap0 = ref 0.0 and cal = new_calib () in
  let rs =
    rounds ~min:ni_fixed_rounds ~seconds (fun round ->
        let r = ni_round reference cal cex ~seed:(pool_seed ~seed ~round) in
        if round = ni_fixed_rounds - 1 then heap0 := peak_heap_mb ();
        r)
  in
  (* every check with its host-speed factor *)
  let factor = calib_factors cal in
  let all = List.map (fun (i, c) -> (factor i, c)) (List.concat rs) in
  let total f = sum (List.map f all) in
  let op_s = total (fun (k, c) -> k *. c.c_op_s) in
  let first f =
    sum (List.map (fun (_, c) -> f c) (List.concat (first_rounds ni_fixed_rounds rs)))
  in
  let first_cycles = first (fun c -> float_of_int c.c_cycles) in
  let ops = List.map (fun (k, c) -> 1000.0 *. k *. c.c_op_s) all in
  {
    attempted = List.length all;
    failed = List.length (List.filter (fun (_, c) -> not c.c_ok) all);
    metrics =
      [
        ("wall_s", op_s /. float_of_int (List.length rs), "s");
        ("setup_s", median (List.map (fun (k, c) -> k *. c.c_setup_s) all), "s");
        ("sim_cycles_per_s", ratio (total (fun (_, c) -> float_of_int c.c_cycles)) op_s, "1/s");
        ("sim_instrs_per_s", ratio (total (fun (_, c) -> float_of_int c.c_instrs)) op_s, "1/s");
        ("op_ms_p50", quantile 0.5 ops, "ms");
        ("op_ms_p90", quantile 0.9 ops, "ms");
        ("alloc_words_per_cycle", ratio (first (fun c -> c.c_words)) first_cycles, "words");
        ("promoted_words_per_cycle", ratio (first (fun c -> c.c_promoted)) first_cycles, "words");
        ("peak_heap_mb", !heap0, "MiB");
      ];
  }
