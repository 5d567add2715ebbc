(* Validator for the two telemetry document kinds the CLI emits:

     telemetry-snapshot  (prx serve --metrics, prx stats --out,
                          campaign summary "telemetry" sub-documents)
     post-mortem         (flight-recorder dumps from prx chaos /
                          prx serve)

   Dispatches on the "document" field. Snapshots must parse through
   Registry.snapshot_of_json, survive a JSON round-trip, and render to
   Prometheus text; repeated --require NAME flags assert that a metric
   of that name is present. Post-mortems must carry a nonempty reason
   and at least one event, each passing the trace documents' event
   check (Pr_obs.Trace.validate_events: known phase, name/ph/ts/pid/tid,
   counter args, non-decreasing ts); repeated --expect-event NAME flags
   assert an event of that name was recorded, and an embedded "metrics"
   snapshot (if any) is validated like a standalone one.

   Usage: telemetry_check FILE [--require NAME]... [--expect-event NAME]...
   Exit 0 on success, 1 on validation failure, 2 on usage error. *)

module J = Pr_util.Json
module Reg = Pr_telemetry.Registry

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("telemetry_check: " ^ s); exit 1) fmt

let usage () =
  prerr_endline
    "usage: telemetry_check FILE [--require NAME]... [--expect-event NAME]...";
  exit 2

let check_snapshot ~requires json =
  let snap =
    match Reg.snapshot_of_json json with
    | Ok s -> s
    | Error e -> fail "snapshot does not parse: %s" e
  in
  (* Round-trip: re-emitting and re-parsing must preserve the snapshot
     (names, kinds, counts) — the property campaign merging relies on. *)
  (match Reg.snapshot_of_json (Reg.snapshot_to_json snap) with
  | Error e -> fail "snapshot does not round-trip: %s" e
  | Ok snap' ->
    if List.length snap' <> List.length snap then
      fail "round-trip changed metric count: %d -> %d" (List.length snap)
        (List.length snap');
    List.iter2
      (fun (n, _) (n', _) ->
        if n <> n' then fail "round-trip changed metric name: %s -> %s" n n')
      snap snap');
  (* Exposition must render and mention every metric's sanitized name. *)
  let prom = Reg.to_prometheus snap in
  if snap <> [] && String.length prom = 0 then
    fail "Prometheus exposition is empty for a nonempty snapshot";
  List.iter
    (fun name ->
      if not (List.mem_assoc name snap) then
        fail "required metric %S missing from snapshot" name)
    requires;
  List.length snap

let check_post_mortem ~expected json =
  (match J.string_member "reason" json with
  | Ok "" -> fail "post-mortem has an empty reason"
  | Ok _ -> ()
  | Error e -> fail "post-mortem: %s" e);
  let events =
    match J.member "events" json with
    | Some ev -> (
      match J.to_list ev with
      | Ok l -> l
      | Error e -> fail "post-mortem events: %s" e)
    | None -> fail "post-mortem has no events field"
  in
  if events = [] then fail "post-mortem recorded no events";
  (match Pr_obs.Trace.validate_events events with
  | Ok () -> ()
  | Error e -> fail "post-mortem %s" e);
  let names = List.map (fun ev -> Result.get_ok (J.string_member "name" ev)) events in
  List.iter
    (fun name ->
      if not (List.mem name names) then
        fail "expected event %S not in the flight recorder" name)
    expected;
  (match J.member "metrics" json with
  | Some m -> ignore (check_snapshot ~requires:[] m)
  | None -> ());
  List.length events

let () =
  let file = ref None and requires = ref [] and expected = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--require" :: name :: rest ->
      requires := name :: !requires;
      parse_args rest
    | "--expect-event" :: name :: rest ->
      expected := name :: !expected;
      parse_args rest
    | arg :: rest when !file = None && String.length arg > 0 && arg.[0] <> '-'
      ->
      file := Some arg;
      parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let file = match !file with Some f -> f | None -> usage () in
  let contents =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let json =
    match J.parse contents with
    | Ok j -> j
    | Error e -> fail "%s: %s" file e
  in
  match J.string_member "document" json with
  | Ok "telemetry-snapshot" ->
    let n = check_snapshot ~requires:!requires json in
    Printf.printf "telemetry_check: %s ok (%d metrics)\n" file n
  | Ok "post-mortem" ->
    if !requires <> [] then
      fail "--require applies to snapshots, not post-mortems";
    let n = check_post_mortem ~expected:!expected json in
    Printf.printf "telemetry_check: %s ok (%d events)\n" file n
  | Ok other -> fail "%s: unknown document kind %S" file other
  | Error e -> fail "%s: %s" file e
