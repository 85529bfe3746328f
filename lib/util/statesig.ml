(* A sink either hashes or renders what a component's [fold_state] feeds
   it (see the interface).  The mixer is the 64-bit boost-style combine:
   order-dependent (folding [a; b] differs from [b; a]) and deterministic
   across runs and domains.  Sequences and options mix their length
   first, so moving an element across a boundary changes the signature
   just as it changes the brackets of the dump. *)

type mode = Hash | Dump of Buffer.t

type sink = {
  mode : mode;
  mutable h : int;
  mutable fresh : bool; (* dump: nothing written since the last [=], [[] or [;] *)
}

(* 61-bit truncation of the 64-bit golden-ratio constant (OCaml ints are
   63-bit). *)
let[@inline] mix h v = h lxor (v + 0x1E3779B97F4A7C15 + (h lsl 6) + (h lsr 2))

let make mode = { mode; h = 0x2545F4914F6CDD1D; fresh = true }

let signature fold =
  let s = make Hash in
  fold s;
  s.h

let dump fold =
  let buf = Buffer.create 1024 in
  fold (make (Dump buf));
  Buffer.contents buf

(* The dump renderers stay out of line, so each operation's hash path is
   small enough to inline into the folds that run once per cycle. *)

(* Scalars and sequences are comma-separated within a field or a
   sequence element. *)
let comma s b =
  if not s.fresh then Buffer.add_char b ',';
  s.fresh <- false

let scalar s b str =
  comma s b;
  Buffer.add_string b str

(* [string_of_int] goes through C [printf]; the oracle renders every
   cycle, so digits are emitted directly.  Working on [-|v|] covers
   [min_int]. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let scalar_int s b v =
  comma s b;
  if v < 0 then Buffer.add_char b '-';
  add_neg_digits b (if v < 0 then v else -v)

let label s b l =
  if not s.fresh then Buffer.add_char b ' ';
  Buffer.add_string b l;
  Buffer.add_char b '=';
  s.fresh <- true

(* [[x;y;z]], each element's own values comma-separated. *)
let dump_seq s b iter f xs =
  comma s b;
  Buffer.add_char b '[';
  let first = ref true in
  iter
    (fun x ->
      if not !first then Buffer.add_char b ';';
      first := false;
      s.fresh <- true;
      f s x)
    xs;
  Buffer.add_char b ']';
  s.fresh <- false

let[@inline] int s v =
  match s.mode with
  | Hash -> s.h <- mix s.h v
  | Dump b -> scalar_int s b v

let[@inline] bool s v =
  match s.mode with
  | Hash -> s.h <- mix s.h (Bool.to_int v)
  | Dump b -> scalar s b (string_of_bool v)

let[@inline] field s l = match s.mode with Hash -> () | Dump b -> label s b l

(* Sequences fold their length, then every element.  Lists and arrays,
   the per-cycle bulk, iterate without allocating a closure. *)
let seq s len iter f xs =
  match s.mode with
  | Hash ->
    s.h <- mix s.h len;
    iter (fun x -> f s x) xs
  | Dump b -> dump_seq s b iter f xs

let fifo s f q = seq s (Fifo.length q) Fifo.iter f q

let rec hash_list s f = function
  | [] -> ()
  | x :: tl ->
    f s x;
    hash_list s f tl

let list s f xs =
  match s.mode with
  | Hash ->
    s.h <- mix s.h (List.length xs);
    hash_list s f xs
  | Dump b -> dump_seq s b List.iter f xs

let array s f xs =
  match s.mode with
  | Hash ->
    s.h <- mix s.h (Array.length xs);
    for i = 0 to Array.length xs - 1 do
      f s xs.(i)
    done
  | Dump b -> dump_seq s b Array.iter f xs

let init s n f =
  match s.mode with
  | Hash ->
    s.h <- mix s.h n;
    for k = 0 to n - 1 do
      f s k
    done
  | Dump b ->
    dump_seq s b
      (fun g () ->
        for k = 0 to n - 1 do
          g k
        done)
      f ()

let ints s a ~pos ~len =
  match s.mode with
  | Hash ->
    s.h <- mix s.h len;
    for k = pos to pos + len - 1 do
      s.h <- mix s.h a.(k)
    done
  | Dump b ->
    dump_seq s b
      (fun g () ->
        for k = pos to pos + len - 1 do
          g a.(k)
        done)
      int ()

let[@inline] present s b =
  match s.mode with
  | Hash -> s.h <- mix s.h (Bool.to_int b)
  | Dump b' -> if not b then scalar s b' "-"

let[@inline] opt s f = function
  | None -> (
    match s.mode with Hash -> s.h <- mix s.h 0 | Dump b -> scalar s b "-")
  | Some x ->
    (match s.mode with Hash -> s.h <- mix s.h 1 | Dump _ -> ());
    f s x
