(* Rows are materialized on first write.  Until then a set points at the
   shared cold row pair, which is never written: every write path
   ([fill], [update], [restore]) materializes first, and [update] only
   reaches valid — hence materialized — ways.  A way is valid iff its
   meta is [Some]. *)
type 'a t = {
  nsets : int;
  nways : int;
  tags : int array array;
  meta : 'a option array array;
  cold_tags : int array;
  cold_meta : 'a option array;
}

let create ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Sram.create";
  let cold_tags = Array.make ways 0 and cold_meta = Array.make ways None in
  {
    nsets = sets;
    nways = ways;
    tags = Array.make sets cold_tags;
    meta = Array.make sets cold_meta;
    cold_tags;
    cold_meta;
  }

let sets t = t.nsets
let ways t = t.nways

let check t set way =
  if set < 0 || set >= t.nsets || way < 0 || way >= t.nways then
    invalid_arg "Sram: set/way out of range"

let materialize t set =
  if t.meta.(set) == t.cold_meta then begin
    t.tags.(set) <- Array.make t.nways 0;
    t.meta.(set) <- Array.make t.nways None
  end

let find_way t ~set ~tag =
  if set < 0 || set >= t.nsets then invalid_arg "Sram.find_way: set out of range";
  let tags = t.tags.(set) and meta = t.meta.(set) in
  (* A loop, not a local recursive function: no closure on the hit path. *)
  let way = ref (-1) and w = ref 0 in
  while !way < 0 && !w < t.nways do
    (match meta.(!w) with Some _ when tags.(!w) = tag -> way := !w | _ -> ());
    incr w
  done;
  !way

let meta t ~set ~way =
  check t set way;
  match t.meta.(set).(way) with
  | Some m -> m
  | None -> invalid_arg "Sram.meta: way is invalid"

let read t ~set ~way =
  check t set way;
  match t.meta.(set).(way) with
  | Some m -> Some (t.tags.(set).(way), m)
  | None -> None

let is_valid t ~set ~way =
  check t set way;
  Option.is_some t.meta.(set).(way)

let fill t ~set ~way ~tag m =
  check t set way;
  materialize t set;
  t.tags.(set).(way) <- tag;
  t.meta.(set).(way) <- Some m

let update t ~set ~way m =
  check t set way;
  if Option.is_none t.meta.(set).(way) then
    invalid_arg "Sram.update: way is invalid";
  t.meta.(set).(way) <- Some m

let invalidate t ~set ~way =
  check t set way;
  (* A cold row is already all-invalid. *)
  if t.meta.(set) != t.cold_meta then t.meta.(set).(way) <- None

let invalid_way t ~set =
  let meta = t.meta.(set) in
  let rec go w =
    if w >= t.nways then None
    else if Option.is_none meta.(w) then Some w
    else go (w + 1)
  in
  go 0

let count_valid t =
  let n = ref 0 in
  Array.iter
    (fun row -> Array.iter (fun m -> if Option.is_some m then incr n) row)
    t.meta;
  !n

let iter_valid f t =
  for set = 0 to t.nsets - 1 do
    for way = 0 to t.nways - 1 do
      match t.meta.(set).(way) with
      | Some m -> f set way t.tags.(set).(way) m
      | None -> ()
    done
  done

let invalidate_all t =
  Array.iter
    (fun row -> if row != t.cold_meta then Array.fill row 0 t.nways None)
    t.meta

(* Checkpoint/restore: materialized rows are copied by value ([copy]
   deep-copies a metadata record, so mutable meta such as the LLC's
   line_meta is captured on both the save and the restore path); a cold
   set is saved as [None] and costs nothing. *)
type 'a checkpoint = (int array * 'a option array) option array

let save ?(copy = fun m -> m) t =
  Array.init t.nsets (fun set ->
      if t.meta.(set) == t.cold_meta then None
      else
        Some (Array.copy t.tags.(set), Array.map (Option.map copy) t.meta.(set)))

let restore ?(copy = fun m -> m) t ck =
  Array.iteri
    (fun set row ->
      match row with
      | None ->
        if t.meta.(set) != t.cold_meta then
          Array.fill t.meta.(set) 0 t.nways None
      | Some (tags, meta) ->
        materialize t set;
        Array.blit tags 0 t.tags.(set) 0 t.nways;
        for way = 0 to t.nways - 1 do
          t.meta.(set).(way) <- Option.map copy meta.(way)
        done)
    ck
