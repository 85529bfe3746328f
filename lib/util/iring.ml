(* The buffer length is a power of two, so a slot index is a mask. *)
type t = { mutable buf : int array; mutable head : int; mutable len : int }

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let create ~capacity =
  { buf = Array.make (pow2_at_least (max 1 capacity)) 0; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let[@inline] slot t k = (t.head + k) land (Array.length t.buf - 1)

let get t k =
  if k < 0 || k >= t.len then invalid_arg "Iring.get";
  t.buf.(slot t k)

let grow t =
  let buf = Array.make (2 * Array.length t.buf) 0 in
  for k = 0 to t.len - 1 do
    buf.(k) <- t.buf.(slot t k)
  done;
  t.buf <- buf;
  t.head <- 0

let push t v =
  if t.len = Array.length t.buf then grow t;
  t.buf.(slot t t.len) <- v;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Iring.peek: empty";
  t.buf.(t.head)

let pop t =
  let v = peek t in
  t.head <- slot t 1;
  t.len <- t.len - 1;
  v

let clear t =
  t.head <- 0;
  t.len <- 0

let copy t = { buf = Array.copy t.buf; head = t.head; len = t.len }

let assign t ~from =
  t.buf <- Array.copy from.buf;
  t.head <- from.head;
  t.len <- from.len
