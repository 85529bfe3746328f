type 'a t = {
  nsets : int;
  nways : int;
  tags : int array array;
  valid : bool array array;
  meta : 'a option array array;
}

let create ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Sram.create";
  {
    nsets = sets;
    nways = ways;
    tags = Array.make_matrix sets ways 0;
    valid = Array.make_matrix sets ways false;
    meta = Array.make_matrix sets ways None;
  }

let sets t = t.nsets
let ways t = t.nways

let check t set way =
  if set < 0 || set >= t.nsets || way < 0 || way >= t.nways then
    invalid_arg "Sram: set/way out of range"

let find t ~set ~tag =
  let rec go w =
    if w >= t.nways then None
    else if t.valid.(set).(w) && t.tags.(set).(w) = tag then
      match t.meta.(set).(w) with
      | Some m -> Some (w, m)
      | None -> assert false
    else go (w + 1)
  in
  if set < 0 || set >= t.nsets then invalid_arg "Sram.find: set out of range";
  go 0

let read t ~set ~way =
  check t set way;
  if t.valid.(set).(way) then
    match t.meta.(set).(way) with
    | Some m -> Some (t.tags.(set).(way), m)
    | None -> assert false
  else None

let is_valid t ~set ~way =
  check t set way;
  t.valid.(set).(way)

let fill t ~set ~way ~tag m =
  check t set way;
  t.tags.(set).(way) <- tag;
  t.valid.(set).(way) <- true;
  t.meta.(set).(way) <- Some m

let update t ~set ~way m =
  check t set way;
  if not t.valid.(set).(way) then
    invalid_arg "Sram.update: way is invalid";
  t.meta.(set).(way) <- Some m

let invalidate t ~set ~way =
  check t set way;
  t.valid.(set).(way) <- false;
  t.meta.(set).(way) <- None

let invalid_way t ~set =
  let rec go w =
    if w >= t.nways then None
    else if not t.valid.(set).(w) then Some w
    else go (w + 1)
  in
  go 0

let count_valid t =
  let n = ref 0 in
  Array.iter (Array.iter (fun v -> if v then incr n)) t.valid;
  !n

let iter_valid f t =
  for set = 0 to t.nsets - 1 do
    for way = 0 to t.nways - 1 do
      if t.valid.(set).(way) then
        match t.meta.(set).(way) with
        | Some m -> f set way t.tags.(set).(way) m
        | None -> assert false
    done
  done

(* Checkpoint/restore: matrices are copied by value; [copy] deep-copies a
   metadata record so mutable meta (the LLC's line_meta) is captured by
   value on both the save and the restore path — a checkpoint stays valid
   however the live array (or a restored machine) mutates afterwards. *)
type 'a checkpoint = {
  c_tags : int array array;
  c_valid : bool array array;
  c_meta : 'a option array array;
}

let save ?(copy = fun m -> m) t =
  {
    c_tags = Array.map Array.copy t.tags;
    c_valid = Array.map Array.copy t.valid;
    c_meta = Array.map (Array.map (Option.map copy)) t.meta;
  }

let restore ?(copy = fun m -> m) t ck =
  for set = 0 to t.nsets - 1 do
    Array.blit ck.c_tags.(set) 0 t.tags.(set) 0 t.nways;
    Array.blit ck.c_valid.(set) 0 t.valid.(set) 0 t.nways;
    for way = 0 to t.nways - 1 do
      t.meta.(set).(way) <- Option.map copy ck.c_meta.(set).(way)
    done
  done

let invalidate_all t =
  for set = 0 to t.nsets - 1 do
    for way = 0 to t.nways - 1 do
      t.valid.(set).(way) <- false;
      t.meta.(set).(way) <- None
    done
  done
