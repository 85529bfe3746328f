type t =
  | Arbiter
  | Mshr
  | Uq_dq
  | Dram
  | Cache
  | Walk
  | Purge
  | Sample
  | Btb
  | Rsb

let traced = [ Arbiter; Mshr; Uq_dq; Dram; Cache; Walk; Purge; Sample ]
let inferable = [ Arbiter; Mshr; Uq_dq; Dram; Cache; Walk; Purge; Btb; Rsb ]

let name = function
  | Arbiter -> "llc-arbiter"
  | Mshr -> "llc-mshr"
  | Uq_dq -> "llc-uq-dq"
  | Dram -> "dram-cmd"
  | Cache -> "cache-fill"
  | Walk -> "page-walk"
  | Purge -> "purge"
  | Sample -> "sample"
  | Btb -> "btb"
  | Rsb -> "rsb"

let of_name s = List.find_opt (fun ch -> name ch = s) (Sample :: inferable)

let of_event = function
  | Trace.Arb_grant _ | Trace.Arb_idle _ -> Arbiter
  | Trace.Mshr_alloc _ | Trace.Mshr_free _ -> Mshr
  | Trace.Uq_send _ | Trace.Dq_retry _ -> Uq_dq
  | Trace.Dram_cmd _ -> Dram
  | Trace.Cache_miss _ | Trace.Cache_fill _ -> Cache
  | Trace.Walk_start _ | Trace.Walk_end _ -> Walk
  | Trace.Purge_begin _ | Trace.Purge_phase _ | Trace.Purge_end _ -> Purge
  | Trace.Counter _ -> Sample

let to_json chs = Json.List (List.map (fun ch -> Json.String (name ch)) chs)
