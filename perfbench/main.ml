(* perfbench: host speed of the simulator on one workload.

     main.exe --workload spec-mem|spec-cpu|ni-sched --seed N --seconds S
              --trace 0|1
     main.exe --record      re-record perfbench/reference.json

   Run from the repository root.  The last stdout line is one JSON
   object {correct, attempted, failed, metrics}; --trace 0 gives the
   end-to-end metrics, --trace 1 the per-layer ones (see README.md). *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload spec-mem|spec-cpu|ni-sched --seed N \
     --seconds S --trace 0|1\n\
    \       main.exe --record";
  exit 2

(* Values are printed with every digit; a non-finite value cannot be
   expressed in JSON and marks the run incorrect. *)
let print_result ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (finite && failed = 0 && attempted > 0)
    attempted failed
    (String.concat ", " (List.map metric metrics))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--record" ] then begin
    Reference.record ();
    exit 0
  end;
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let name = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if List.length opts <> 4 || seconds < 1 then usage ();
  let workload =
    match List.assoc_opt name workloads with Some w -> w | None -> usage ()
  in
  let reference = Reference.load () in
  let seconds = float_of_int seconds in
  let s =
    match (workload, trace) with
    | Spec_cells cells, false -> Timed.spec reference cells ~seed ~seconds
    | Ni_sched, false -> Timed.ni reference ~seed ~seconds
    | Spec_cells cells, true -> Traced.spec reference cells ~seed ~seconds
    | Ni_sched, true -> Traced.ni reference ~seed ~seconds
  in
  if trace then begin
    let dir = ".bench_build" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Span.write (Printf.sprintf "%s/perfbench-%s-%d.trace.json" dir name seed)
  end;
  Printf.printf "%s seed %d: %d operations, %d failed\n" name seed
    s.Timed.attempted s.Timed.failed;
  print_result ~attempted:s.Timed.attempted ~failed:s.Timed.failed
    s.Timed.metrics
