(* CI schema checker for the observability exports.

   usage: json_check [--require KEY]... [--chrome-trace FILE]...
                     [--history FILE]... [--telemetry FILE]...
                     [--min-snapshots N] [--bisect FILE]...
                     [--agrees-audit FILE] [--ni FILE]...
                     [--lint FILE]... [FILE]...

   Plain FILE arguments must parse as JSON (and contain every --require
   KEY at the top level).  --chrome-trace files must additionally follow
   the Chrome trace_event schema the simulator emits (a "traceEvents"
   list whose entries carry name/ph/ts/pid/tid with the right types).
   --history files are BENCH_history.jsonl databases: every non-blank
   line must decode into a Perfdb record.  --telemetry files are
   Telemetry JSONL streams: every line must validate against the
   snapshot schema, with dense sequence numbers and strictly increasing
   cycles; --min-snapshots additionally bounds the count from below.
   --bisect files must follow the mi6.bisect/1 slice-report schema, name
   only audit channels, and — under the signature oracle — show a dump
   difference for every component its signature blamed;
   --agrees-audit additionally cross-checks each diverged bisect report
   against an audit JSON: the auditor's first leaking baseline channel
   must be among the channels the bisector's diverging component hosts.
   --ni files must follow the mi6.ni/1 noninterference-report schema:
   every schedule string replayable through the real parser, every
   falsified result localized to a channel the audit traces
   (Channel.traced).
   --lint files must follow the mi6.lint/2 static channel-inference
   schema: kinds from the analyzer's vocabulary, channel names from
   those inference can name (Channel.inferable), clean flags consistent
   with findings, and — when the report was produced with --channels —
   every speculative program finding naming at least one channel it can
   leak through.
   Exit 0 iff everything passes. *)

open Mi6_obs

(* The channel [name] denotes, when it is one of [among] (a subset of the
   vocabulary: what the audit traces, or what inference can name). *)
let channel_in among name =
  match Channel.of_name name with
  | Some ch when List.mem ch among -> Some ch
  | _ -> None

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* One problem string per violated constraint; [] = valid. *)
let check_chrome_trace json =
  match Json.member "traceEvents" json with
  | None -> [ "missing top-level \"traceEvents\"" ]
  | Some (Json.List events) ->
    let check_event i ev =
      let field name = Json.member name ev in
      let problems = ref [] in
      let want name pred kind =
        match field name with
        | None ->
          problems := Printf.sprintf "event %d: missing %S" i name :: !problems
        | Some v ->
          if not (pred v) then
            problems :=
              Printf.sprintf "event %d: %S is not %s" i name kind :: !problems
      in
      let is_string = function Json.String _ -> true | _ -> false in
      let is_int = function Json.Int _ -> true | _ -> false in
      want "name" is_string "a string";
      want "ph" (function
        | Json.String ("B" | "E" | "i" | "C" | "X" | "M") -> true
        | _ -> false)
        "a phase (B/E/i/C/X/M)";
      want "ts" is_int "an integer timestamp";
      want "pid" is_int "an integer";
      want "tid" is_int "an integer";
      List.rev !problems
    in
    List.concat (List.mapi check_event events)
  | Some _ -> [ "\"traceEvents\" is not a list" ]

(* Every non-blank JSONL line must decode into a Perfdb record. *)
let check_history file =
  let s = read_file file in
  let lines = String.split_on_char '\n' s in
  let problems = ref [] in
  let runs = ref 0 in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match Json.of_string line with
        | exception Failure msg ->
          problems :=
            Printf.sprintf "line %d: invalid JSON: %s" (i + 1) msg :: !problems
        | json -> (
          match Perfdb.record_of_json json with
          | Ok _ -> incr runs
          | Error msg ->
            problems :=
              Printf.sprintf "line %d: bad record: %s" (i + 1) msg :: !problems))
    lines;
  if !runs = 0 && !problems = [] then
    problems := [ "no records (empty history)" ];
  List.rev !problems

(* mi6.bisect/1 slice-report schema, plus the optional channel-agreement
   cross-check against an audit report. *)
let check_bisect ?audit json =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let str_field name =
    match Json.member name json with
    | Some (Json.String s) -> Some s
    | Some _ ->
      bad "%S is not a string" name;
      None
    | None ->
      bad "missing %S" name;
      None
  in
  let int_field ?(where = json) name =
    match Json.member name where with
    | Some (Json.Int i) when i >= 0 -> Some i
    | Some _ -> bad "%S is not a non-negative int" name; None
    | None -> bad "missing %S" name; None
  in
  let string_list name =
    match Json.member name json with
    | Some (Json.List l)
      when List.for_all (function Json.String _ -> true | _ -> false) l ->
      Some (List.map (function Json.String s -> s | _ -> "") l)
    | Some _ -> bad "%S is not a list of strings" name; None
    | None -> bad "missing %S" name; None
  in
  (match str_field "schema" with
  | Some "mi6.bisect/1" | None -> ()
  | Some other -> bad "schema is %S, want \"mi6.bisect/1\"" other);
  ignore (str_field "label_a");
  ignore (str_field "label_b");
  (match Json.member "checkpoints" json with
  | Some (Json.Obj _ as cks) ->
    List.iter
      (fun f -> ignore (int_field ~where:cks f))
      [ "interval"; "taken"; "retained"; "mem_high_water_words"; "probes" ]
  | Some _ -> bad "\"checkpoints\" is not an object"
  | None -> bad "missing \"checkpoints\"");
  (match Json.member "diverged" json with
  | Some (Json.Bool true) ->
    ignore (int_field "cycle");
    ignore (int_field "checkpoint_cycle");
    let oracle = str_field "oracle" in
    (match oracle with
    | Some ("signature" | "activity") | None -> ()
    | Some other -> bad "oracle is %S, want signature|activity" other);
    let component = str_field "component" in
    let components = string_list "components" in
    (match (components, component) with
    | Some cs, Some c when not (List.mem c cs) ->
      bad "component %S missing from \"components\"" c
    | _ -> ());
    let channels =
      Option.map
        (List.filter_map (fun name ->
             let ch = channel_in Channel.traced name in
             if ch = None then
               bad "audit_channels: unknown audit channel %S" name;
             ch))
        (string_list "audit_channels")
    in
    List.iter
      (fun name -> ignore (string_list name))
      [ "uops_a"; "uops_b"; "trace_a"; "trace_b" ];
    (match Json.member "field_diff" json with
    | Some (Json.List diffs) ->
      List.iteri
        (fun i d ->
          let str f =
            match Json.member f d with
            | Some (Json.String v) -> Some v
            | _ ->
              bad "field_diff[%d]: missing string %S" i f;
              None
          in
          match (str "component", str "a", str "b", str "first_diff") with
          | Some c, Some a, Some b, Some first when oracle = Some "signature" ->
            (* Signature and dump derive from one fold: a component
               blamed by its signature must show a dump difference. *)
            (match components with
            | Some cs when not (List.mem c cs) ->
              bad "field_diff[%d]: component %S not in \"components\"" i c
            | _ -> ());
            if a = b then
              bad "field_diff[%d]: %S blamed by its signature but its dumps \
                   are equal" i c;
            if first = "" then bad "field_diff[%d]: empty \"first_diff\"" i
          | _ -> ())
        diffs
    | Some _ -> bad "\"field_diff\" is not a list"
    | None -> bad "missing \"field_diff\"");
    (match (audit, channels) with
    | Some audit_json, Some channels -> (
      match
        Option.bind (Json.member "verdict" audit_json) (Json.member "baseline_channel")
      with
      | Some (Json.String name) -> (
        match channel_in Channel.traced name with
        | Some ch when List.mem ch channels -> ()
        | _ ->
          bad
            "audit's leaking channel %S is not hosted by the diverging \
             component (channels: %s)"
            name
            (String.concat ", " (List.map Channel.name channels)))
      | _ -> bad "audit report lacks verdict.baseline_channel")
    | _ -> ())
  | Some (Json.Bool false) -> ignore (int_field "cycles_run")
  | Some _ -> bad "\"diverged\" is not a bool"
  | None -> bad "missing \"diverged\"");
  List.rev !problems

(* mi6.ni/1: the interrupt-schedule noninterference report.  Every
   schedule string must parse back through the real parser (the strings
   are the replay artifact CI archives), every falsified result must
   carry a leaking channel the auditor actually has, and the falsified
   count must agree with the per-result verdicts. *)
let check_ni json =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Json.member "schema" json with
  | Some (Json.String "mi6.ni/1") -> ()
  | Some (Json.String other) -> bad "schema is %S, want \"mi6.ni/1\"" other
  | _ -> bad "missing string \"schema\"");
  (match Json.member "mode" json with
  | Some (Json.String ("generate" | "replay")) -> ()
  | _ -> bad "\"mode\" is not generate|replay");
  let int_field name =
    match Json.member name json with
    | Some (Json.Int i) when i >= 0 -> Some i
    | _ ->
      bad "missing non-negative int %S" name;
      None
  in
  let count = int_field "count" in
  let falsified = int_field "falsified" in
  (match Json.member "results" json with
  | Some (Json.List results) ->
    (match count with
    | Some n when n <> List.length results ->
      bad "count is %d but \"results\" has %d entries" n (List.length results)
    | _ -> ());
    let seen_falsified = ref 0 in
    List.iteri
      (fun i r ->
        let sched name =
          match Json.member name r with
          | Some (Json.String s) -> (
            match Mi6_core.Schedule.of_string s with
            | Ok parsed -> Some parsed
            | Error e -> bad "results[%d].%s: %s" i name e; None)
          | Some _ -> bad "results[%d].%s is not a string" i name; None
          | None -> None
        in
        (match sched "schedule" with
        | None ->
          if Json.member "schedule" r = None then
            bad "results[%d]: missing \"schedule\"" i
        | Some parsed -> (
          match Json.member "variant" r with
          | Some (Json.String v) ->
            if
              Mi6_core.Config.variant_of_name v
              <> Some parsed.Mi6_core.Schedule.variant
            then bad "results[%d]: variant %S disagrees with the schedule" i v
          | _ -> bad "results[%d]: missing string \"variant\"" i));
        (match Json.member "falsified" r with
        | Some (Json.Bool f) ->
          if f then begin
            incr seen_falsified;
            (match Json.member "shrunk" r with
            | None -> ()
            | Some (Json.String _) -> ignore (sched "shrunk")
            | Some _ -> bad "results[%d].shrunk is not a string" i);
            match Json.member "channel" r with
            | Some (Json.String c) ->
              if channel_in Channel.traced c = None then
                bad "results[%d]: unknown audit channel %S" i c
            | _ ->
              bad
                "results[%d]: falsified but no leaking \"channel\" (audit \
                 disagreement)"
                i
          end
        | _ -> bad "results[%d]: missing bool \"falsified\"" i);
        List.iter
          (fun name ->
            match Json.member name r with
            | Some (Json.List _) -> ()
            | _ -> bad "results[%d]: missing list %S" i name)
          [ "observation"; "reference" ])
      results;
    (match falsified with
    | Some n when n <> !seen_falsified ->
      bad "falsified is %d but %d result(s) are falsified" n !seen_falsified
    | _ -> ())
  | Some _ -> bad "\"results\" is not a list"
  | None -> bad "missing \"results\"");
  List.rev !problems

(* mi6.lint/2: the static channel-inference report.  Findings carry
   their speculation/rsb provenance and value-set target; with channels
   on, every program finding must list its candidate and open channels
   (known names, opens a subset of candidates), every speculative
   finding must name at least one channel, and every config finding must
   map its check to a channel or an explicit null. *)
let check_lint json =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let kind_names =
    [
      "branch-condition"; "jump-target"; "load-address"; "store-address";
      "variable-latency"; "shared-write"; "shared-read";
    ]
  in
  (match Json.member "schema" json with
  | Some (Json.String "mi6.lint/2") -> ()
  | Some (Json.String other) -> bad "schema is %S, want \"mi6.lint/2\"" other
  | _ -> bad "missing string \"schema\"");
  List.iter
    (fun name ->
      match Json.member name json with
      | Some (Json.String _) -> ()
      | _ -> bad "missing string %S" name)
    [ "tool"; "machine" ];
  (match Json.member "window" json with
  | Some (Json.Int w) when w >= 0 -> ()
  | _ -> bad "missing non-negative int \"window\"");
  let channels_on =
    match Json.member "channels" json with
    | Some (Json.Bool b) -> b
    | _ ->
      bad "missing bool \"channels\"";
      false
  in
  let total = ref 0 in
  let channel_list ~where name j =
    match Json.member name j with
    | Some (Json.List l) ->
      let names =
        List.filter_map (function Json.String s -> Some s | _ -> None) l
      in
      if List.length names <> List.length l then
        bad "%s: %S is not a list of strings" where name;
      Some
        (List.filter_map
           (fun c ->
             let ch = channel_in Channel.inferable c in
             if ch = None then bad "%s: unknown channel %S in %S" where c name;
             ch)
           names)
    | Some _ ->
      bad "%s: %S is not a list" where name;
      None
    | None ->
      bad "%s: missing %S (channels report)" where name;
      None
  in
  let check_program_finding ~where f =
    (match Json.member "pc" f with
    | Some (Json.Int pc) when pc >= 0 -> ()
    | _ -> bad "%s: missing non-negative int \"pc\"" where);
    (match Json.member "kind" f with
    | Some (Json.String k) ->
      if not (List.mem k kind_names) then bad "%s: unknown kind %S" where k
    | _ -> bad "%s: missing string \"kind\"" where);
    let speculative =
      match Json.member "speculative" f with
      | Some (Json.Bool b) -> b
      | _ ->
        bad "%s: missing bool \"speculative\"" where;
        false
    in
    (match Json.member "rsb" f with
    | Some (Json.Bool _) -> ()
    | _ -> bad "%s: missing bool \"rsb\"" where);
    (match Json.member "target" f with
    | Some (Json.String _) | Some Json.Null -> ()
    | _ -> bad "%s: \"target\" is neither string nor null" where);
    (match Json.member "width" f with
    | Some (Json.Int w) when w >= 0 -> ()
    | _ -> bad "%s: missing non-negative int \"width\"" where);
    List.iter
      (fun name ->
        match Json.member name f with
        | Some (Json.String _) -> ()
        | _ -> bad "%s: missing string %S" where name)
      [ "instr"; "detail" ];
    if channels_on then begin
      let chans = channel_list ~where "channels" f in
      let opens = channel_list ~where "open_channels" f in
      (match (chans, opens) with
      | Some cs, Some os ->
        List.iter
          (fun o ->
            if not (List.mem o cs) then
              bad "%s: open channel %S not among \"channels\"" where
                (Channel.name o))
          os
      | _ -> ());
      match chans with
      | Some [] when speculative ->
        bad "%s: speculative finding names no channel" where
      | _ -> ()
    end
  in
  let check_config_finding ~where f =
    List.iter
      (fun name ->
        match Json.member name f with
        | Some (Json.String _) -> ()
        | _ -> bad "%s: missing string %S" where name)
      [ "check"; "subject"; "message" ];
    if channels_on then
      match Json.member "channel" f with
      | Some (Json.String c) ->
        if channel_in Channel.inferable c = None then
          bad "%s: unknown channel %S" where c
      | Some Json.Null -> ()
      | _ -> bad "%s: \"channel\" is neither string nor null" where
  in
  let section name check_finding =
    match Json.member name json with
    | Some (Json.List entries) ->
      List.iteri
        (fun i entry ->
          let ename =
            match Json.member "name" entry with
            | Some (Json.String s) -> s
            | _ ->
              bad "%s[%d]: missing string \"name\"" name i;
              string_of_int i
          in
          let findings =
            match Json.member "findings" entry with
            | Some (Json.List fs) ->
              total := !total + List.length fs;
              List.iteri
                (fun j f ->
                  check_finding
                    ~where:(Printf.sprintf "%s[%s].findings[%d]" name ename j)
                    f)
                fs;
              fs
            | _ ->
              bad "%s[%s]: missing list \"findings\"" name ename;
              []
          in
          match Json.member "clean" entry with
          | Some (Json.Bool clean) ->
            if clean <> (findings = []) then
              bad "%s[%s]: \"clean\" disagrees with findings" name ename
          | _ -> bad "%s[%s]: missing bool \"clean\"" name ename)
        entries
    | Some _ -> bad "%S is not a list" name
    | None -> bad "missing %S" name
  in
  section "programs" check_program_finding;
  section "configs" check_config_finding;
  (match Json.member "total_findings" json with
  | Some (Json.Int n) ->
    if n <> !total then
      bad "total_findings is %d but sections carry %d finding(s)" n !total
  | _ -> bad "missing int \"total_findings\"");
  List.rev !problems

let check_telemetry ~min_snapshots file =
  match Telemetry.validate_file ~path:file with
  | Ok n when n < min_snapshots ->
    [ Printf.sprintf "only %d snapshot(s), need >= %d" n min_snapshots ]
  | Ok _ -> []
  | Error msg -> [ msg ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let require = ref [] in
  let plain = ref [] and chrome = ref [] and history = ref [] in
  let telemetry = ref [] and min_snapshots = ref 1 in
  let bisect = ref [] and agrees_audit = ref None in
  let ni = ref [] and lint = ref [] in
  let rec parse = function
    | "--require" :: k :: rest ->
      require := k :: !require;
      parse rest
    | "--ni" :: f :: rest ->
      ni := f :: !ni;
      parse rest
    | "--lint" :: f :: rest ->
      lint := f :: !lint;
      parse rest
    | "--chrome-trace" :: f :: rest ->
      chrome := f :: !chrome;
      parse rest
    | "--history" :: f :: rest ->
      history := f :: !history;
      parse rest
    | "--telemetry" :: f :: rest ->
      telemetry := f :: !telemetry;
      parse rest
    | "--bisect" :: f :: rest ->
      bisect := f :: !bisect;
      parse rest
    | "--agrees-audit" :: f :: rest ->
      agrees_audit := Some f;
      parse rest
    | "--min-snapshots" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v when v >= 0 ->
        min_snapshots := v;
        parse rest
      | _ ->
        prerr_endline "json_check: --min-snapshots wants a non-negative int";
        exit 2)
    | f :: rest ->
      plain := f :: !plain;
      parse rest
    | [] -> ()
  in
  parse args;
  let plain = List.rev !plain
  and chrome = List.rev !chrome
  and history = List.rev !history
  and telemetry = List.rev !telemetry
  and bisect = List.rev !bisect
  and ni = List.rev !ni
  and lint = List.rev !lint in
  if plain = [] && chrome = [] && history = [] && telemetry = [] && bisect = []
     && ni = [] && lint = []
  then begin
    prerr_endline
      "usage: json_check [--require KEY]... [--chrome-trace FILE]...\n\
      \                  [--history FILE]... [--telemetry FILE]...\n\
      \                  [--min-snapshots N] [--bisect FILE]...\n\
      \                  [--agrees-audit FILE] [--ni FILE]...\n\
      \                  [--lint FILE]... [FILE]...";
    exit 2
  end;
  let fail = ref false in
  let report file = function
    | [] -> Printf.printf "%s: ok\n" file
    | problems ->
      List.iter (fun p -> Printf.eprintf "%s: %s\n" file p) problems;
      fail := true
  in
  let with_json file k =
    match Json.of_string (read_file file) with
    | exception Sys_error msg ->
      report file [ msg ]
    | exception Failure msg ->
      report file [ "invalid JSON: " ^ msg ]
    | json -> report file (k json)
  in
  List.iter
    (fun file ->
      with_json file (fun json ->
          List.filter_map
            (fun k ->
              if Json.member k json = None then
                Some (Printf.sprintf "missing key %S" k)
              else None)
            (List.rev !require)))
    plain;
  List.iter (fun file -> with_json file check_chrome_trace) chrome;
  List.iter
    (fun file ->
      match check_history file with
      | exception Sys_error msg -> report file [ msg ]
      | problems -> report file problems)
    history;
  List.iter
    (fun file ->
      match check_telemetry ~min_snapshots:!min_snapshots file with
      | exception Sys_error msg -> report file [ msg ]
      | problems -> report file problems)
    telemetry;
  let audit =
    match !agrees_audit with
    | None -> None
    | Some file -> (
      match Json.of_string (read_file file) with
      | exception Sys_error msg ->
        report file [ msg ];
        None
      | exception Failure msg ->
        report file [ "invalid JSON: " ^ msg ];
        None
      | json -> Some json)
  in
  List.iter (fun file -> with_json file (check_bisect ?audit)) bisect;
  List.iter (fun file -> with_json file check_ni) ni;
  List.iter (fun file -> with_json file check_lint) lint;
  exit (if !fail then 1 else 0)
