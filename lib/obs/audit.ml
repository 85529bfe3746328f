type divergence = {
  d_index : int;
  d_cycle_a : int option;
  d_cycle_b : int option;
  d_label_a : string;
  d_label_b : string;
}

type channel_verdict = {
  v_channel : Channel.t;
  v_events_a : int;
  v_events_b : int;
  v_first : divergence option;
}

type report = {
  r_label_a : string;
  r_label_b : string;
  r_events_a : int;
  r_events_b : int;
  r_first : divergence option;
  r_channels : channel_verdict list;
}

let eos = "<end-of-stream>"

(* First index where the streams disagree on (cycle, label); a stream
   that ends early diverges at its end. *)
let first_divergence a b =
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | (ca, ea) :: ta, (cb, eb) :: tb ->
      let la = Trace.event_label ea and lb = Trace.event_label eb in
      if ca = cb && la = lb then go (i + 1) ta tb
      else
        Some
          {
            d_index = i;
            d_cycle_a = Some ca;
            d_cycle_b = Some cb;
            d_label_a = la;
            d_label_b = lb;
          }
    | (ca, ea) :: _, [] ->
      Some
        {
          d_index = i;
          d_cycle_a = Some ca;
          d_cycle_b = None;
          d_label_a = Trace.event_label ea;
          d_label_b = eos;
        }
    | [], (cb, eb) :: _ ->
      Some
        {
          d_index = i;
          d_cycle_a = None;
          d_cycle_b = Some cb;
          d_label_a = eos;
          d_label_b = Trace.event_label eb;
        }
  in
  go 0 a b

let diff ?(label_a = "a") ?(label_b = "b") a b =
  let channel_events ch evs =
    List.filter (fun (_, e) -> Channel.of_event e = ch) evs
  in
  let channels =
    List.map
      (fun ch ->
        let ea = channel_events ch a and eb = channel_events ch b in
        {
          v_channel = ch;
          v_events_a = List.length ea;
          v_events_b = List.length eb;
          v_first = first_divergence ea eb;
        })
      Channel.traced
  in
  {
    r_label_a = label_a;
    r_label_b = label_b;
    r_events_a = List.length a;
    r_events_b = List.length b;
    r_first = first_divergence a b;
    r_channels = channels;
  }

let clean r = r.r_first = None

(* Order diverging channels by when the disagreement happens, taking the
   earliest cycle stamp present on either side. *)
let divergence_cycle d =
  match (d.d_cycle_a, d.d_cycle_b) with
  | Some a, Some b -> min a b
  | Some a, None -> a
  | None, Some b -> b
  | None, None -> max_int

let leaking_channels r =
  List.filter_map
    (fun v -> Option.map (fun d -> (divergence_cycle d, v.v_channel)) v.v_first)
    r.r_channels
  |> List.sort compare
  |> List.map snd

let first_leaking_channel r =
  match leaking_channels r with [] -> None | ch :: _ -> Some ch

(* The earliest victim-visible cycle at which the two streams disagree —
   the number the bisector's slice report refines down to a component
   and field diff. *)
let first_divergence_cycle r =
  match r.r_first with
  | Some d ->
    let c = divergence_cycle d in
    if c = max_int then None else Some c
  | None -> None

let pp_divergence ppf d =
  let side c l =
    match c with
    | Some c -> Printf.sprintf "cycle %d: %s" c l
    | None -> l
  in
  Format.fprintf ppf "event #%d: %s  vs  %s" d.d_index
    (side d.d_cycle_a d.d_label_a)
    (side d.d_cycle_b d.d_label_b)

let pp_report ppf r =
  Format.fprintf ppf "audit %s vs %s: %d vs %d events@." r.r_label_a r.r_label_b
    r.r_events_a r.r_events_b;
  (match r.r_first with
  | None -> Format.fprintf ppf "  streams bit-identical (no divergence)@."
  | Some d -> Format.fprintf ppf "  FIRST DIVERGENCE %a@." pp_divergence d);
  List.iter
    (fun v ->
      if v.v_events_a > 0 || v.v_events_b > 0 || v.v_first <> None then
        match v.v_first with
        | None ->
          Format.fprintf ppf "  %-12s ok (%d events)@."
            (Channel.name v.v_channel) v.v_events_a
        | Some d ->
          Format.fprintf ppf "  %-12s DIVERGES at %a@."
            (Channel.name v.v_channel) pp_divergence d)
    r.r_channels

let divergence_to_json d =
  let cyc = function Some c -> Json.Int c | None -> Json.Null in
  Json.Obj
    [
      ("index", Json.Int d.d_index);
      ("cycle_a", cyc d.d_cycle_a);
      ("cycle_b", cyc d.d_cycle_b);
      ("label_a", Json.String d.d_label_a);
      ("label_b", Json.String d.d_label_b);
    ]

let report_to_json r =
  Json.Obj
    [
      ("label_a", Json.String r.r_label_a);
      ("label_b", Json.String r.r_label_b);
      ("events_a", Json.Int r.r_events_a);
      ("events_b", Json.Int r.r_events_b);
      ("clean", Json.Bool (clean r));
      ( "first_divergence",
        match r.r_first with
        | None -> Json.Null
        | Some d -> divergence_to_json d );
      ( "first_divergence_cycle",
        match first_divergence_cycle r with
        | Some c -> Json.Int c
        | None -> Json.Null );
      ( "channels",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("channel", Json.String (Channel.name v.v_channel));
                   ("events_a", Json.Int v.v_events_a);
                   ("events_b", Json.Int v.v_events_b);
                   ("clean", Json.Bool (v.v_first = None));
                   ( "first_divergence",
                     match v.v_first with
                     | None -> Json.Null
                     | Some d -> divergence_to_json d );
                 ])
             r.r_channels) );
    ]
