type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 64

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let incr t name = incr (cell t name)

let add t name k =
  let r = cell t name in
  r := !r + k

(* A handle resolves its cell on the first bump, so a counter that is
   never bumped never enters the table.  [unbound] is a shared sentinel
   that is compared by identity and never written. *)
type counter = { tbl : t; name : string; mutable r : int ref }

let unbound = ref 0
let counter t name = { tbl = t; name; r = unbound }

let bump c =
  if c.r == unbound then c.r <- cell c.tbl c.name;
  Stdlib.incr c.r
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0
let set t name v = cell t name := v
let reset t = Hashtbl.iter (fun _ r -> r := 0) t

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let per_kilo t ~num ~den =
  let d = get t den in
  if d = 0 then 0.0 else 1000.0 *. float_of_int (get t num) /. float_of_int d

let merge ~into src = Hashtbl.iter (fun k r -> add into k !r) src

let copy t =
  let c = create () in
  Hashtbl.iter (fun k r -> set c k !r) t;
  c

let diff t ~baseline =
  let d = create () in
  Hashtbl.iter (fun k r -> set d k (!r - get baseline k)) t;
  d

let to_assoc t = List.map (fun name -> (name, get t name)) (names t)

let restore ~into src =
  reset into;
  Hashtbl.iter (fun k r -> set into k !r) src

let pp ppf t =
  (* Column width follows the longest counter name so long names stay
     aligned instead of shoving their values out of the column. *)
  let width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 24 (to_assoc t)
  in
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-*s %d@." width name v)
    (to_assoc t)
