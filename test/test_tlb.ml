(* Tests for TLBs, the translation cache, and the page-table walker. *)

open Mi6_tlb

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_tlb_hit_miss () =
  let t = Tlb.create Tlb.l1_config in
  check_bool "cold miss" false (Tlb.lookup t ~vpage:5);
  Tlb.insert t ~vpage:5;
  check_bool "hit after insert" true (Tlb.lookup t ~vpage:5);
  check_int "occupancy" 1 (Tlb.occupancy t)

let test_tlb_lru_eviction () =
  (* 4-entry fully associative: fill, touch the oldest, insert one more —
     the LRU (second-oldest) goes. *)
  let t = Tlb.create { Tlb.sets = 1; ways = 4 } in
  List.iter (fun v -> Tlb.insert t ~vpage:v) [ 1; 2; 3; 4 ];
  check_bool "touch 1" true (Tlb.lookup t ~vpage:1);
  Tlb.insert t ~vpage:5;
  check_bool "1 kept (recently used)" true (Tlb.lookup t ~vpage:1);
  check_bool "2 evicted (LRU)" false (Tlb.lookup t ~vpage:2);
  check_bool "5 present" true (Tlb.lookup t ~vpage:5)

let test_tlb_set_mapping () =
  let t = Tlb.create Tlb.l2_config in
  (* Pages that differ by a multiple of 256 share a set in the 256-set L2
     TLB; ways = 4 so the fifth conflicting insert evicts. *)
  for k = 0 to 4 do
    Tlb.insert t ~vpage:(k * 256)
  done;
  let live = ref 0 in
  for k = 0 to 4 do
    if Tlb.lookup t ~vpage:(k * 256) then incr live
  done;
  check_int "one of five evicted" 4 !live;
  check_int "others unaffected" 4 (Tlb.occupancy t)

let test_tlb_flush_semantics () =
  let t = Tlb.create Tlb.l2_config in
  for v = 0 to 999 do
    Tlb.insert t ~vpage:v
  done;
  check_int "filled" 1000 (Tlb.occupancy t);
  (* Per-set flush (one per cycle in purge). *)
  for set = 0 to Tlb.sets t - 1 do
    Tlb.flush_set t ~set
  done;
  check_int "all flushed" 0 (Tlb.occupancy t);
  check_int "self-cleaning LRU: public signature" 0 (Tlb.lru_signature t)

let test_tlb_flush_all_scrubs_lru () =
  let fresh = Tlb.create Tlb.l1_config in
  let used = Tlb.create Tlb.l1_config in
  for v = 0 to 100 do
    Tlb.insert used ~vpage:v;
    ignore (Tlb.lookup used ~vpage:(v / 2))
  done;
  Tlb.flush_all used;
  check_int "flushed TLB indistinguishable from fresh" (Tlb.lru_signature fresh)
    (Tlb.lru_signature used)

let test_trans_cache () =
  let tc = Trans_cache.create ~entries_per_level:24 ~levels:2 in
  check_bool "cold" false (Trans_cache.lookup tc ~level:0 ~prefix:7);
  Trans_cache.insert tc ~level:0 ~prefix:7;
  Trans_cache.insert tc ~level:1 ~prefix:9;
  check_bool "level 0 hit" true (Trans_cache.lookup tc ~level:0 ~prefix:7);
  check_bool "level isolation" false (Trans_cache.lookup tc ~level:1 ~prefix:7);
  check_int "occupancy" 2 (Trans_cache.occupancy tc);
  Trans_cache.flush tc;
  check_int "flush empties" 0 (Trans_cache.occupancy tc)

(* Walker driven against an always-accepting 1-cycle memory.  A walk's
   reads are the responses its slot received before it returned its
   token. *)
let run_walk ?(accept = fun ~line:_ -> true) ptw ~vpage =
  let result = ref None in
  Ptw.start ~now:0 ptw ~vpage ~token:7;
  let pending = Queue.create () in
  let reads = ref 0 in
  let now = ref 0 in
  while !result = None && !now < 100 do
    incr now;
    Ptw.tick ptw ~issue:(fun ~line ~id ->
        if accept ~line then begin
          Queue.add id pending;
          true
        end
        else false);
    (* Respond to one outstanding read per cycle. *)
    if not (Queue.is_empty pending) then begin
      incr reads;
      match Ptw.mem_response ~now:!now ptw ~id:(Queue.pop pending) with
      | -1 -> ()
      | token ->
        check_int "the walk's own token" 7 token;
        result := Some !reads
    end
  done;
  match !result with
  | Some reads -> reads
  | None -> Alcotest.fail "walk never finished"

let make_ptw () =
  let tc = Trans_cache.create ~entries_per_level:24 ~levels:2 in
  (Ptw.create ~max_walks:2 ~tcache:tc ~pt_base_line:1_000_000
     ~table_window_lines:4096 (), tc)

let test_ptw_full_walk_then_cached () =
  let ptw, _ = make_ptw () in
  check_int "cold walk reads 3 levels" 3 (run_walk ptw ~vpage:0x12345);
  (* Same region: the translation cache short-circuits to the leaf. *)
  check_int "warm walk reads 1 level" 1 (run_walk ptw ~vpage:0x12346);
  (* Same root prefix, different mid prefix: 2 reads. *)
  check_int "half-warm walk reads 2 levels" 2
    (run_walk ptw ~vpage:(0x12345 lxor (1 lsl 10)))

let test_ptw_pte_locality () =
  let ptw, _ = make_ptw () in
  (* Adjacent pages share a level-0 PTE line (8 PTEs per line). *)
  check_int "adjacent pages same PTE line"
    (Ptw.pte_line ptw ~level:0 ~vpage:8)
    (Ptw.pte_line ptw ~level:0 ~vpage:9);
  check_bool "pages 8 apart differ" true
    (Ptw.pte_line ptw ~level:0 ~vpage:8 <> Ptw.pte_line ptw ~level:0 ~vpage:16);
  (* Levels use disjoint windows. *)
  check_bool "levels disjoint" true
    (Ptw.pte_line ptw ~level:0 ~vpage:0 <> Ptw.pte_line ptw ~level:1 ~vpage:0)

let test_ptw_backpressure_retries () =
  let ptw, _ = make_ptw () in
  let calls = ref 0 in
  let accept ~line:_ =
    incr calls;
    (* Refuse the first two attempts. *)
    !calls > 2
  in
  check_int "walk completes despite refusals" 3 (run_walk ~accept ptw ~vpage:0x999);
  check_bool "walker retried" true (!calls > 3)

let test_ptw_concurrent_walks () =
  let ptw, _ = make_ptw () in
  let reads = Hashtbl.create 4 and finished = Hashtbl.create 4 in
  Ptw.start ~now:0 ptw ~vpage:0x1000 ~token:1;
  Ptw.start ~now:0 ptw ~vpage:0x2000000 ~token:2;
  check_bool "slots exhausted" false (Ptw.can_start ptw);
  check_int "two active" 2 (Ptw.active_walks ptw);
  let pending = Queue.create () in
  for now = 1 to 50 do
    Ptw.tick ptw ~issue:(fun ~line:_ ~id ->
        Queue.add id pending;
        true);
    if not (Queue.is_empty pending) then begin
      let id = Queue.pop pending in
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt reads id) in
      match Ptw.mem_response ~now ptw ~id with
      | -1 -> Hashtbl.replace reads id n
      | token ->
        Hashtbl.replace finished token n;
        Hashtbl.remove reads id
    end
  done;
  check_bool "walk 1 done" true (Hashtbl.find_opt finished 1 = Some 3);
  check_bool "walk 2 done" true (Hashtbl.find_opt finished 2 = Some 3);
  check_int "slots free again" 0 (Ptw.active_walks ptw)

(* LRU property: the most recently touched entry of a fully associative
   TLB survives any insertion sequence that evicts at most ways-1 new
   entries. *)
let prop_lru_mru_survives =
  QCheck.Test.make ~name:"most recently used entry survives w-1 inserts"
    ~count:200
    QCheck.(pair (int_range 2 8) (small_list (int_range 100 200)))
    (fun (ways, inserts) ->
      let t = Tlb.create { Tlb.sets = 1; ways } in
      Tlb.insert t ~vpage:1;
      ignore (Tlb.lookup t ~vpage:1);
      let distinct = List.sort_uniq compare inserts in
      let n = min (ways - 1) (List.length distinct) in
      List.iteri (fun i v -> if i < n then Tlb.insert t ~vpage:v) distinct;
      Tlb.lookup t ~vpage:1)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mi6_tlb"
    [
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "set mapping" `Quick test_tlb_set_mapping;
          Alcotest.test_case "flush semantics" `Quick test_tlb_flush_semantics;
          Alcotest.test_case "flush scrubs lru" `Quick
            test_tlb_flush_all_scrubs_lru;
        ]
        @ qsuite [ prop_lru_mru_survives ] );
      ( "trans_cache",
        [ Alcotest.test_case "levels and flush" `Quick test_trans_cache ] );
      ( "ptw",
        [
          Alcotest.test_case "full then cached walk" `Quick
            test_ptw_full_walk_then_cached;
          Alcotest.test_case "pte locality" `Quick test_ptw_pte_locality;
          Alcotest.test_case "backpressure retries" `Quick
            test_ptw_backpressure_retries;
          Alcotest.test_case "concurrent walks" `Quick test_ptw_concurrent_walks;
        ] );
    ]
