(* Reference fingerprints of every input a run can meet, recorded once
   through the library's own entry points ([Tmachine.run_spec],
   [Schedule.run]) and checked against what the timed and traced runs
   produce.  A simulator-speed change must leave every simulated
   statistic identical; any mismatch counts as a failed operation. *)

open Mi6_core
open Common
module Json = Mi6_obs.Json
module Stats = Mi6_util.Stats
module Cpistack = Mi6_obs.Cpistack

let path = "perfbench/reference.json"
let schema = "mi6.perfbench.reference/1"

(* Simulated results a spec cell is fingerprinted on: the window's
   cycles and instructions, its CPI stack, and the L1/LLC/DRAM counters. *)
let spec_counters =
  List.map (fun c -> Cpistack.counter_name c) Cpistack.categories
  @ [
      "l1d.0.accesses"; "l1d.0.hits"; "l1d.0.misses"; "l1i.0.misses";
      "llc.requests"; "llc.hits"; "llc.misses"; "dram.reads";
    ]

let spec_fields = "cycles" :: "instrs" :: spec_counters

let spec_fingerprint (r : Tmachine.result) =
  r.cycles :: r.instrs :: List.map (Stats.get r.stats) spec_counters

(* Invariants every cell must satisfy whatever the reference says: the
   CPI stack sums to the window's cycles, and the window holds the
   requested instructions (the warmup snapshot is taken at the first
   commit group reaching [warmup], so up to [commit_width - 1] of the
   window's first group can fall before it). *)
let spec_invariants ~(timing : Config.timing) (r : Tmachine.result) =
  let stack =
    Cpistack.of_counters ~label:"cell" ~total:r.cycles (Stats.to_assoc r.stats)
  in
  let short = measure - r.instrs in
  Cpistack.sums_exactly stack
  && short >= 0
  && short < timing.Config.core.Mi6_ooo.Core_config.commit_width

let spec_key ~bench ~variant ~seed =
  Printf.sprintf "%s/%s/%d" (Spec.name bench) (Config.variant_name variant) seed

(* One schedule check: a digest of the schedule and both observations,
   the simulated cycles of its two machines (up to each one's final
   exit commit), and their committed µops. *)
type ni_entry = { digest : string; cycles : int; instrs : int }

let ni_digest sched obs ref_obs =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            Schedule.to_string sched;
            Json.to_string (Schedule.observation_to_json obs);
            Json.to_string (Schedule.observation_to_json ref_obs);
          ]))
  |> fun h -> String.sub h 0 16

(* Every attacker window commits its µops plus the Enter/Exit markers;
   both machines commit a body of the same length. *)
let ni_instrs ~body_len obs ref_obs =
  let side o =
    List.fold_left (fun a w -> a + w.Schedule.w_commits + 2) body_len o
  in
  side obs + side ref_obs

type t = {
  spec : (string, int list) Hashtbl.t;
  ni : (int, ni_entry array) Hashtbl.t;
  counterexample : ni_entry;
}

let params_json =
  Json.Obj
    [
      ("warmup", Json.Int warmup); ("measure", Json.Int measure);
      ("pool", Json.Int pool); ("ni_count", Json.Int ni_count);
    ]

let entry_json e = Json.List [ Json.String e.digest; Json.Int e.cycles; Json.Int e.instrs ]

let entry_of_json = function
  | Json.List [ Json.String digest; Json.Int cycles; Json.Int instrs ] ->
    { digest; cycles; instrs }
  | _ -> failwith (path ^ ": malformed ni entry")

let field name v =
  match Json.member name v with
  | Some x -> x
  | None -> failwith (path ^ ": missing field " ^ name)

let load () =
  let j = Json.of_string (In_channel.with_open_text path In_channel.input_all) in
  if field "schema" j <> Json.String schema then failwith (path ^ ": wrong schema");
  if field "params" j <> params_json then
    failwith (path ^ ": recorded with other run sizes; re-record it");
  let spec = Hashtbl.create 512 and ni = Hashtbl.create 64 in
  (match field "spec" j with
  | Json.Obj cells ->
    List.iter
      (fun (k, v) ->
        match v with
        | Json.List xs ->
          Hashtbl.replace spec k
            (List.map (function Json.Int i -> i | _ -> failwith k) xs)
        | _ -> failwith (path ^ ": malformed cell " ^ k))
      cells
  | _ -> failwith (path ^ ": malformed spec"));
  (match field "ni" j with
  | Json.Obj seeds ->
    List.iter
      (fun (k, v) ->
        match v with
        | Json.List es ->
          Hashtbl.replace ni (int_of_string k)
            (Array.of_list (List.map entry_of_json es))
        | _ -> failwith (path ^ ": malformed ni seed " ^ k))
      seeds
  | _ -> failwith (path ^ ": malformed ni"));
  { spec; ni; counterexample = entry_of_json (field "counterexample" j) }

let spec_matches t ~bench ~variant ~seed r =
  Hashtbl.find_opt t.spec (spec_key ~bench ~variant ~seed)
  = Some (spec_fingerprint r)

(* [ni_matches expected v ~body_len] — the check's digest and committed
   µops match the recorded entry. *)
let ni_matches expected (v : Schedule.verdict) ~body_len =
  expected.digest = ni_digest v.v_schedule v.v_obs v.v_ref_obs
  && expected.instrs = ni_instrs ~body_len v.v_obs v.v_ref_obs

let ni_entries t ~seed =
  match Hashtbl.find_opt t.ni seed with
  | Some es -> es
  | None -> failwith (Printf.sprintf "%s: no ni entries for seed %d" path seed)

(* --- Recording ------------------------------------------------------ *)

(* Both machines of a check, run separately so their cycle counts are
   visible; [Schedule.check] compares exactly these two observations. *)
let record_check sched ~falsifies =
  let body = Mi6_progen.Body.uops_of_seed sched.Schedule.body_seed in
  let timing = Config.timing ~cores:1 sched.Schedule.variant in
  let run body = Schedule.run ~timing ~body sched in
  let obs, bounds = run body in
  let ref_obs, ref_bounds =
    run (Schedule.reference_body (List.length body))
  in
  if (obs <> ref_obs) <> falsifies then
    failwith
      (Printf.sprintf "record: %s %s" (Schedule.to_string sched)
         (if falsifies then "does not falsify" else "falsifies"));
  let last b = snd (List.nth b (List.length b - 1)) in
  {
    digest = ni_digest sched obs ref_obs;
    cycles = last bounds + last ref_bounds;
    instrs = ni_instrs ~body_len:(List.length body) obs ref_obs;
  }

let record () =
  let spec_cells =
    List.concat_map
      (fun (_, w) -> match w with Spec_cells cs -> cs | Ni_sched -> [])
      workloads
  in
  let spec =
    List.concat_map
      (fun seed ->
        List.map
          (fun (bench, variant) ->
            let r = Tmachine.run_spec ~seed ~variant ~bench ~warmup ~measure () in
            if not (spec_invariants ~timing:(Config.timing ~cores:1 variant) r)
            then failwith ("record: invariants fail on " ^ spec_key ~bench ~variant ~seed);
            ( spec_key ~bench ~variant ~seed,
              Json.List (List.map (fun i -> Json.Int i) (spec_fingerprint r)) ))
          spec_cells)
      (List.init pool Fun.id)
  in
  let ni =
    List.init pool (fun seed ->
        let scheds =
          Mi6_progen.Ni_gen.sample ~variant:Config.Fpma ~seed ~count:ni_count ()
        in
        ( string_of_int seed,
          Json.List
            (List.map
               (fun s -> entry_json (record_check s ~falsifies:false))
               scheds) ))
  in
  (* One entry per line, so a re-recorded file diffs by input. *)
  let obj entries =
    "{\n"
    ^ String.concat ",\n"
        (List.map (fun (k, v) -> Json.to_string (Json.String k) ^ ": " ^ v) entries)
    ^ "\n}"
  in
  let flat = List.map (fun (k, v) -> (k, Json.to_string v)) in
  let text =
    obj
      (flat
         [
           ("schema", Json.String schema);
           ("params", params_json);
           ("spec_fields", Json.List (List.map (fun f -> Json.String f) spec_fields));
         ]
      @ [ ("spec", obj (flat spec)); ("ni", obj (flat ni)) ]
      @ flat
          [
            ( "counterexample",
              entry_json (record_check (counterexample ()) ~falsifies:true) );
          ])
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc text;
      output_char oc '\n')
