type dram_kind =
  | Const_dram of { latency : int; max_outstanding : int }
  | Reorder_dram of Fr_fcfs.config

type t = {
  l1s : L1.t array;
  llc : Llc.t;
  selfprof : Selfprof.t;
  mutable clock : int;
  completions : (int * int) list ref array; (* reversed *)
  complete : (int -> unit) array; (* per-core L1 callbacks, built once *)
}

let create ?(trace = Trace.null) ?(selfprof = Selfprof.null)
    ?(l1 = L1.default_config) ?(link_depth = 4) ~llc:llc_cfg ~security ~dram
    ~stats () =
  let n = llc_cfg.Llc.cores in
  let links = Array.init n (fun _ -> Link.create ~depth:link_depth) in
  let dram_ctrl =
    match dram with
    | Const_dram { latency; max_outstanding } ->
      Controller.constant ~trace ~latency ~max_outstanding ~stats ()
    | Reorder_dram cfg -> Controller.reordering ~trace cfg ~stats
  in
  let llc =
    Llc.create ~trace ~selfprof llc_cfg ~security ~links ~dram:dram_ctrl
      ~stats
  in
  let l1s =
    Array.init n (fun i ->
        L1.create ~trace l1 ~link:links.(i) ~stats
          ~name:(Printf.sprintf "l1.%d" i))
  in
  let completions = Array.init n (fun _ -> ref []) in
  let t =
    { l1s; llc; selfprof; clock = 0; completions; complete = Array.make n ignore }
  in
  Array.iteri
    (fun core acc ->
      t.complete.(core) <- (fun id -> acc := (id, t.clock) :: !acc))
    completions;
  t

let cores t = Array.length t.l1s
let now t = t.clock
let l1 t ~core = t.l1s.(core)
let llc t = t.llc
let can_accept t ~core = L1.can_accept t.l1s.(core)

let request t ~core ~line ~store ~id =
  L1.request t.l1s.(core) ~line ~store ~id

let tick t =
  let now = t.clock in
  let p = Selfprof.switch t.selfprof Selfprof.ph_l1 in
  for core = 0 to Array.length t.l1s - 1 do
    L1.tick t.l1s.(core) ~now ~complete:t.complete.(core)
  done;
  ignore (Selfprof.switch t.selfprof Selfprof.ph_llc);
  Llc.tick t.llc ~now;
  Selfprof.restore t.selfprof p;
  t.clock <- now + 1

let take_completions t ~core =
  let out = List.rev !(t.completions.(core)) in
  t.completions.(core) := [];
  out

let quiescent t =
  (not (Llc.busy t.llc))
  && Array.for_all (fun c -> L1.in_flight c = 0) t.l1s

let run_until_quiescent t ~max_cycles =
  let start = t.clock in
  let rec go () =
    if quiescent t then t.clock - start
    else if t.clock - start >= max_cycles then
      failwith "Hierarchy.run_until_quiescent: timeout (possible deadlock)"
    else begin
      tick t;
      go ()
    end
  in
  go ()
