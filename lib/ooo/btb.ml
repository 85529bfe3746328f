type t = {
  entries : int;
  tags : int array;
  targets : int array;
  valid : bool array;
}

let create ?(entries = 256) () =
  {
    entries;
    tags = Array.make entries 0;
    targets = Array.make entries 0;
    valid = Array.make entries false;
  }

(* Instructions are 4-byte aligned; drop the low bits before indexing. *)
let slot t pc = pc lsr 2 land (t.entries - 1)

let predict t ~pc =
  let i = slot t pc in
  if t.valid.(i) && t.tags.(i) = pc then Some t.targets.(i) else None

let predicts t ~pc ~target =
  let i = slot t pc in
  t.valid.(i) && t.tags.(i) = pc && t.targets.(i) = target

let update t ~pc ~target =
  let i = slot t pc in
  t.valid.(i) <- true;
  t.tags.(i) <- pc;
  t.targets.(i) <- target

let flush t = Array.fill t.valid 0 t.entries false

let occupancy t =
  Array.fold_left (fun n v -> if v then n + 1 else n) 0 t.valid

type snapshot = { s_tags : int array; s_targets : int array; s_valid : bool array }

let snapshot t =
  {
    s_tags = Array.copy t.tags;
    s_targets = Array.copy t.targets;
    s_valid = Array.copy t.valid;
  }

let restore t s =
  Array.blit s.s_tags 0 t.tags 0 t.entries;
  Array.blit s.s_targets 0 t.targets 0 t.entries;
  Array.blit s.s_valid 0 t.valid 0 t.entries
