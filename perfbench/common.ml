(* Workload definitions, run sizes, clock, and small statistics helpers
   shared by the timed run, the traced run and the reference recorder. *)

open Mi6_core
module Spec = Mi6_workload.Spec

(* One spec cell: [warmup] µops untimed (caches start cold and warm
   here), then [measure] µops timed, cut into [slice]-µop operations at
   the stream boundary. *)
let warmup = 20_000
let measure = 40_000
let slice = 4_000

(* Round [r] of workload seed [n] uses input [pool_seed ~seed:n ~round:r]
   of a fixed pool, so every input a run can meet has a recorded
   reference fingerprint. *)
let pool = 32

(* Schedules sampled per ni-sched round (plus the committed counterexample). *)
let ni_count = 31
let counterexample_file = "examples/ni/base-counterexample.sched"

type workload =
  | Spec_cells of (Spec.bench * Config.variant) list
  | Ni_sched

let both_variants benches =
  List.concat_map (fun b -> [ (b, Config.Base); (b, Config.Fpma) ]) benches

let workloads =
  [
    ("spec-mem", Spec_cells (both_variants Spec.[ Mcf; Omnetpp; Astar ]));
    ("spec-cpu", Spec_cells (both_variants Spec.[ Hmmer; H264ref ]));
    ("ni-sched", Ni_sched);
  ]

let pool_seed ~seed ~round = (((seed + round) mod pool) + pool) mod pool

(* Monotonic host clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Host-speed calibration.  This host's speed changes by up to 1.8x
   between runs and 1.6x within a second, so raw host times of one commit
   differ between runs by more than any useful bound and no statistic
   within a run removes that.  The timed run therefore runs this
   fixed kernel between operations and scales each operation's host times
   by [calib_ref_s] over the kernel times around it (see
   [Timed.calib_point]): a reported host time reads as seconds
   on a host where the kernel takes [calib_ref_s].  The kernel is frozen
   benchmark code, so a change to the simulator moves scaled times as it
   moves raw ones, while a change of host speed moves kernel and simulator
   together.  Of the kernels tried (a dependent ALU chain, independent ALU
   chains with unpredictable branches, random reads over 8 MiB, a toy
   pipeline model, and this one), this allocation-heavy one tracked the
   simulator's speed most closely across host modes; the simulator
   allocates 230-500 minor-heap words per simulated cycle. *)
let calib_ref_s = 0.005
let calib_iters = 50_000

let calib_kernel () =
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 1 to calib_iters do
    Hashtbl.replace h (i land 4095) (i, float_of_int i);
    l := (i, [| i; i + 1 |]) :: (if i land 63 = 0 then [] else !l)
  done;
  Hashtbl.length h + List.length !l

(* Host seconds of one kernel run.  The untimed minor collection first
   settles the garbage-collector work the simulator left pending, which
   the kernel would otherwise pay for (up to +20% on its time). *)
let calibrate () =
  Gc.minor ();
  let t = now () in
  ignore (Sys.opaque_identity (calib_kernel ()));
  now () -. t

let words_of_bytes b = b /. float_of_int (Sys.word_size / 8)
let promoted_words () = (Gc.quick_stat ()).Gc.promoted_words
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The committed BASE counterexample: comment lines are dropped, the one
   remaining line is a replayable [ni1:] schedule. *)
let counterexample () =
  let lines =
    In_channel.with_open_text counterexample_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [ l ] -> (
    match Schedule.of_string l with
    | Ok s -> s
    | Error e -> failwith (counterexample_file ^ ": " ^ e))
  | _ -> failwith (counterexample_file ^ ": expected one schedule line")

(* Spans around the benchmark's own calls into each layer, recorded by
   the traced run only and written out when it ends. *)
module Span = struct
  type t = { name : string; parent : string; t0 : float; t1 : float }

  let spans = ref []
  let stack = ref []

  let run name f =
    let parent = match !stack with p :: _ -> p | [] -> "" in
    stack := name :: !stack;
    let t0 = now () in
    let finish () =
      spans := { name; parent; t0; t1 = now () } :: !spans;
      stack := List.tl !stack
    in
    Fun.protect ~finally:finish f

  let durations name =
    List.filter_map
      (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
      !spans

  let total name = sum (durations name)

  (* Chrome trace_event JSON (complete events, microseconds). *)
  let write path =
    let open Mi6_obs.Json in
    let base = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
    let ev s =
      Obj
        [
          ("name", String s.name); ("ph", String "X");
          ("ts", Int (int_of_float ((s.t0 -. base) *. 1e6)));
          ("dur", Int (int_of_float ((s.t1 -. s.t0) *. 1e6)));
          ("pid", Int 1); ("tid", Int 1);
          ("args", Obj [ ("parent", String s.parent) ]);
        ]
    in
    let json = Obj [ ("traceEvents", List (List.rev_map ev !spans)) ] in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_string json))
end
