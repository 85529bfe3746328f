type req = { read : bool; line : int; tag : int }

type t =
  | Const of Dram.t * int
  | Reorder of Fr_fcfs.t * int

let constant ?trace ~latency ~max_outstanding ~stats () =
  Const (Dram.create ?trace ~latency ~max_outstanding ~stats (), max_outstanding)

let reordering ?trace cfg ~stats =
  Reorder (Fr_fcfs.create ?trace cfg ~stats, cfg.Fr_fcfs.max_outstanding)

let can_accept = function
  | Const (d, _) -> Dram.can_accept d
  | Reorder (d, _) -> Fr_fcfs.can_accept d

let accept t ~now { read; line; tag } =
  match t with
  | Const (d, _) -> Dram.accept d ~now { Dram.read; line; tag }
  | Reorder (d, _) -> Fr_fcfs.accept d ~now { Fr_fcfs.read; line; tag }

let tick t ~now ~respond =
  match t with
  | Const (d, _) -> Dram.tick d ~now ~respond
  | Reorder (d, _) -> Fr_fcfs.tick d ~now ~respond

let outstanding = function
  | Const (d, _) -> Dram.outstanding d
  | Reorder (d, _) -> Fr_fcfs.outstanding d

let max_outstanding = function Const (_, m) -> m | Reorder (_, m) -> m

type checkpoint = Ck_const of Dram.checkpoint | Ck_reorder of Fr_fcfs.checkpoint

let save = function
  | Const (d, _) -> Ck_const (Dram.save d)
  | Reorder (d, _) -> Ck_reorder (Fr_fcfs.save d)

let restore t ck =
  match (t, ck) with
  | Const (d, _), Ck_const c -> Dram.restore d c
  | Reorder (d, _), Ck_reorder c -> Fr_fcfs.restore d c
  | _ -> invalid_arg "Controller.restore: checkpoint from a different model"

let fold_state s = function
  | Const (d, _) -> Dram.fold_state s d
  | Reorder (d, _) -> Fr_fcfs.fold_state s d
