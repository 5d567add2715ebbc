(* Tests for the pr_obs observability layer: the Trace recorder's
   disabled-is-a-no-op and bounded-buffer contracts, Chrome trace-event
   export invariants (parses back, monotonic timestamps, balanced
   spans), the zero-interference guarantee (byte-identical Metrics with
   tracing on vs off), Timeline sampling, Load_profile percentiles, and
   the sweep --trace integration. *)

module J = Pr_util.Json
module Trace = Pr_obs.Trace
module Timeline = Pr_obs.Timeline
module Load_profile = Pr_obs.Load_profile
module Metrics = Pr_sim.Metrics
module Scenario = Pr_core.Scenario
module Registry = Pr_core.Registry

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let validate_ok trace =
  let doc =
    match J.parse (J.to_string (Trace.to_json trace)) with
    | Ok doc -> doc
    | Error e -> Alcotest.fail ("export does not parse back: " ^ e)
  in
  match Trace.validate_json doc with
  | Ok () -> doc
  | Error e -> Alcotest.fail e

(* --- recorder ------------------------------------------------------- *)

(* Arbitrary record operations, for driving a recorder generically. *)
let apply_op_named t i op name =
  match op with
  | 0 -> Trace.span_begin t ~ts:(float_of_int i) ~tid:(i mod 3) name
  | 1 -> Trace.span_end t ~ts:(float_of_int i) ~tid:(i mod 3) name
  | 2 -> Trace.instant t ~ts:(float_of_int i) ~tid:0 name
  | 3 -> Trace.counter t ~ts:(float_of_int i) ~tid:0 ~value:(float_of_int i) name
  | _ -> Trace.complete t ~ts:(float_of_int i) ~dur:1.0 ~tid:0 name

let apply_op t i op =
  apply_op_named t i op (match op with 0 | 1 -> "s" | 2 -> "i" | 3 -> "c" | _ -> "x")

let disabled_records_nothing =
  QCheck.Test.make ~name:"disabled recorder stores and drops nothing" ~count:50
    QCheck.(list (int_bound 4))
    (fun ops ->
      List.iteri (fun i op -> apply_op Trace.disabled i op) ops;
      Trace.length Trace.disabled = 0
      && Trace.dropped Trace.disabled = 0
      && not (Trace.enabled Trace.disabled))

let export_always_valid =
  (* Whatever op sequence is recorded — including unmatched begins and
     stray ends — the export must parse, stay monotone and balance. *)
  QCheck.Test.make ~name:"export of any op sequence validates" ~count:50
    QCheck.(list (int_bound 4))
    (fun ops ->
      let t = Trace.create ~capacity:256 () in
      List.iteri (fun i op -> apply_op t i op) ops;
      match Trace.validate_json (Trace.to_json t) with
      | Ok () -> true
      | Error _ -> false)

(* The ring against a list model, for both overflow policies: after any
   mix of record kinds, [length] and [dropped] follow from the count, and the held events export in record order — the first
   [capacity] of them when dropping the newest, the last [capacity]
   when overwriting the oldest. *)
let ring_matches_list_model =
  let ph = [| "B"; "E"; "i"; "C"; "X"; "i" |] in
  QCheck.Test.make ~name:"ring matches a list model under both policies" ~count:300
    QCheck.(triple bool (int_range 1 8) (list (int_bound 5)))
    (fun (overwrite, capacity, ops) ->
      let policy = if overwrite then Trace.Overwrite_oldest else Trace.Drop_newest in
      let t = Trace.create ~policy ~capacity () in
      List.iteri
        (fun i op ->
          let name = Printf.sprintf "e%d" i in
          match op with
          | 5 -> Trace.note t ~ts:(float_of_int i) ~tid:0 ~detail:"d" name
          | op -> apply_op_named t i op name)
        ops;
      let n = List.length ops in
      let held = Stdlib.min n capacity in
      let model =
        List.filteri
          (fun i _ -> if overwrite then i >= n - held else i < held)
          (List.mapi (fun i op -> (Printf.sprintf "e%d" i, ph.(op))) ops)
      in
      let exported =
        match J.member "events" (Trace.post_mortem ~reason:"model" t) with
        | Some (J.List evs) ->
          List.map
            (fun e ->
              ( Result.get_ok (J.string_member "name" e),
                Result.get_ok (J.string_member "ph" e) ))
            evs
        | _ -> []
      in
      Trace.length t = held
      && Trace.dropped t = n - held
      && exported = model
      && Result.is_ok (Trace.validate_json (Trace.to_json t)))

let recorder_basics () =
  let t = Trace.create ~capacity:16 () in
  check_bool "enabled" true (Trace.enabled t);
  Trace.span_begin t ~ts:0.0 ~tid:1 "work";
  Trace.instant t ~ts:1.0 ~tid:1 "tick";
  Trace.counter t ~ts:2.0 ~tid:1 ~value:7.0 "depth";
  Trace.complete t ~ts:3.0 ~dur:2.0 ~tid:2 "compute";
  Trace.span_end t ~ts:4.0 ~tid:1 "work";
  check_int "five events" 5 (Trace.length t);
  let doc = validate_ok t in
  (match J.member "traceEvents" doc with
  | Some (J.List evs) -> check_int "five exported" 5 (List.length evs)
  | _ -> Alcotest.fail "missing traceEvents");
  Trace.clear t;
  check_int "clear empties" 0 (Trace.length t)

let full_buffer_drops_newest () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.instant t ~ts:(float_of_int i) ~tid:0 "e"
  done;
  check_int "capacity stored" 4 (Trace.length t);
  check_int "rest counted as dropped" 6 (Trace.dropped t);
  let doc = validate_ok t in
  match J.member "otherData" doc with
  | Some meta -> check_int "dropped surfaced in export" 6 (Result.get_ok (J.int_member "dropped_events" meta))
  | None -> Alcotest.fail "missing otherData"

let unclosed_span_autoclosed () =
  let t = Trace.create ~capacity:16 () in
  Trace.span_begin t ~ts:1.0 ~tid:3 "outer";
  Trace.span_begin t ~ts:2.0 ~tid:3 "inner";
  Trace.instant t ~ts:5.0 ~tid:3 "last";
  (* No ends recorded: export must close both at ts=5.0 (validated by
     validate_ok, which rejects unclosed spans). *)
  let doc = validate_ok t in
  match J.member "traceEvents" doc with
  | Some (J.List evs) -> check_int "2 synthetic ends appended" 5 (List.length evs)
  | _ -> Alcotest.fail "missing traceEvents"

let validator_rejects_bad_documents () =
  let reject name doc =
    match Trace.validate_json doc with
    | Ok () -> Alcotest.fail (name ^ " accepted")
    | Error _ -> ()
  in
  let ev fields = J.Obj fields in
  let base ~ph ~ts =
    [
      ("name", J.String "e");
      ("ph", J.String ph);
      ("ts", J.Float ts);
      ("pid", J.Int 1);
      ("tid", J.Int 0);
    ]
  in
  reject "no traceEvents" (J.Obj []);
  reject "unknown phase" (J.Obj [ ("traceEvents", J.List [ ev (base ~ph:"Z" ~ts:0.0) ]) ]);
  reject "time travel"
    (J.Obj [ ("traceEvents", J.List [ ev (base ~ph:"i" ~ts:5.0); ev (base ~ph:"i" ~ts:1.0) ]) ]);
  reject "unbalanced begin"
    (J.Obj [ ("traceEvents", J.List [ ev (base ~ph:"B" ~ts:0.0) ]) ]);
  reject "stray end" (J.Obj [ ("traceEvents", J.List [ ev (base ~ph:"E" ~ts:0.0) ]) ])

(* --- zero interference ---------------------------------------------- *)

(* Run one protocol twice — recorder disabled vs enabled — and require
   byte-identical Metrics JSON: instrumentation must never perturb the
   simulation. *)
let run_with_trace name trace =
  match Registry.find_opt name with
  | None -> Alcotest.fail ("unknown protocol " ^ name)
  | Some (Registry.Packed (module P)) ->
    let scenario = Scenario.figure1 ~seed:7 () in
    let module R = Pr_proto.Runner.Make (P) in
    let r = R.setup ~trace scenario.Scenario.graph scenario.Scenario.config in
    ignore (R.converge r);
    let rng = Pr_util.Rng.create 9 in
    let flows = Scenario.flows scenario ~rng ~count:20 () in
    List.iter (fun f -> ignore (R.send_flow r f)) flows;
    (J.to_string (Metrics.to_json (R.metrics r)), R.trace r)

let tracing_is_inert name () =
  let plain, _ = run_with_trace name Trace.disabled in
  let trace = Trace.create () in
  let traced, tr = run_with_trace name trace in
  Alcotest.(check string) "metrics byte-identical with tracing on" plain traced;
  check_bool "and the traced run recorded something" true (Trace.length tr > 0);
  ignore (validate_ok tr)

(* --- timeline ------------------------------------------------------- *)

let timeline_samples_and_summarizes () =
  let value = ref 0.0 in
  let trace = Trace.create () in
  let tl =
    Timeline.create ~window:2.0 ~series:[ "x" ] ~probe:(fun () -> [| !value |]) trace
  in
  Timeline.observe tl ~now:0.5;
  (* within first window: no sample *)
  value := 3.0;
  Timeline.observe tl ~now:2.5;
  Timeline.observe tl ~now:2.6;
  (* same window: no second sample *)
  value := 5.0;
  Timeline.observe tl ~now:7.0;
  Timeline.finish tl ~now:9.0;
  check_int "initial + 2 window samples + finish" 4 (List.length (Timeline.samples tl));
  (match Timeline.first_nonzero tl "x" with
  | Some ts -> Alcotest.(check (float 1e-9)) "first activity at first crossing" 2.5 ts
  | None -> Alcotest.fail "no first_nonzero");
  Alcotest.(check (float 1e-9)) "last change" 7.0 (Timeline.quiescence tl);
  (match Timeline.final tl "x" with
  | Some v -> Alcotest.(check (float 1e-9)) "final value" 5.0 v
  | None -> Alcotest.fail "no final");
  check_bool "unknown series is None" true (Timeline.first_nonzero tl "zzz" = None);
  (* Counter events recorded on the trace must form a valid document. *)
  ignore (validate_ok trace)

let timeline_drives_from_engine_observer () =
  let engine = Pr_sim.Engine.create () in
  let ticks = ref 0 in
  let tl =
    Timeline.create ~window:1.0 ~series:[ "ticks" ]
      ~probe:(fun () -> [| float_of_int !ticks |])
      Trace.disabled
  in
  Pr_sim.Engine.set_observer engine
    (Some (fun ~time ~pending:_ -> Timeline.observe tl ~now:time));
  let rec tick i =
    if i < 10 then
      Pr_sim.Engine.schedule engine ~delay:1.0 (fun () ->
          incr ticks;
          tick (i + 1))
  in
  tick 0;
  (* An observer samples without scheduling events, so the queue drains
     exactly as it would untraced. *)
  check_bool "drains" true (Pr_sim.Engine.run engine = Pr_sim.Engine.Drained);
  Timeline.finish tl ~now:(Pr_sim.Engine.now engine);
  check_bool "saw activity" true (Timeline.first_nonzero tl "ticks" <> None)

(* --- load profile --------------------------------------------------- *)

let load_profile_percentiles () =
  let values = Array.init 10 (fun i -> float_of_int (i + 1)) in
  match Load_profile.of_series [ ("msgs", values) ] with
  | [ row ] ->
    Alcotest.(check (float 1e-9)) "total" 55.0 row.Load_profile.total;
    Alcotest.(check (float 1e-9)) "mean" 5.5 row.Load_profile.mean;
    Alcotest.(check (float 1e-9)) "max" 10.0 row.Load_profile.max;
    check_int "argmax" 9 row.Load_profile.argmax;
    Alcotest.(check (float 1e-9)) "p50" 5.5 row.Load_profile.p50;
    check_bool "p90 between order stats" true
      (row.Load_profile.p90 > 9.0 && row.Load_profile.p90 < 10.0);
    (match J.parse (J.to_string (Load_profile.to_json [ row ])) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e)
  | rows -> Alcotest.fail (Printf.sprintf "%d rows for 1 series" (List.length rows))

(* --- sweep --trace integration -------------------------------------- *)

let sweep_trace_files () =
  let dir = Filename.temp_file "obs_traces" "" in
  Sys.remove dir;
  let out = Filename.temp_file "obs_campaign" ".jsonl" in
  Sys.remove out;
  let spec =
    {
      Pr_campaign.Grid.protocols = [ "ecma"; "ls-hbh-pt" ];
      sizes = [ 14 ];
      restrictiveness = [ 0.0 ];
      granularities = [ Pr_policy.Gen.Source_specific ];
      churn = [ false ];
      fault_profiles = [ "none" ];
      replicates = 1;
      base_seed = 42;
      flows = 5;
      max_events = 1_000_000;
    }
  in
  let report = Pr_campaign.Driver.sweep ~jobs:2 ~quiet:true ~trace_dir:dir ~out spec in
  check_int "both runs ok" 2 report.Pr_campaign.Driver.ok;
  let validate_file path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.parse s with
    | Error e -> Alcotest.fail (path ^ ": " ^ e)
    | Ok doc -> (
      match Trace.validate_json doc with
      | Ok () -> ()
      | Error e -> Alcotest.fail (path ^ ": " ^ e))
  in
  let runs = Pr_campaign.Grid.expand spec in
  check_int "one trace per run + pool.json" (List.length runs + 1)
    (Array.length (Sys.readdir dir));
  List.iter
    (fun run ->
      validate_file (Filename.concat dir (Pr_campaign.Exec.trace_filename run)))
    runs;
  validate_file (Filename.concat dir "pool.json");
  (* Every record must point at its trace and carry the skew fields. *)
  let sink = Pr_campaign.Sink.read ~path:out in
  List.iter
    (fun (_id, record) ->
      check_bool "trace_file recorded" true (Result.is_ok (J.string_member "trace_file" record));
      check_bool "time_to_first_route recorded" true
        (Result.is_ok (J.float_member "time_to_first_route" record));
      check_bool "msg_max recorded" true (Result.is_ok (J.int_member "msg_max" record));
      check_bool "tbl_p90 recorded" true (Result.is_ok (J.float_member "tbl_p90" record)))
    sink.Pr_campaign.Sink.records;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  Sys.remove out

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pr_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "recorder basics + export" `Quick recorder_basics;
          Alcotest.test_case "full buffer drops newest" `Quick full_buffer_drops_newest;
          Alcotest.test_case "unclosed spans auto-closed" `Quick unclosed_span_autoclosed;
          Alcotest.test_case "validator rejects bad documents" `Quick
            validator_rejects_bad_documents;
        ]
        @ qsuite [ disabled_records_nothing; export_always_valid; ring_matches_list_model ] );
      ( "interference",
        List.map
          (fun name ->
            Alcotest.test_case (name ^ " unperturbed by tracing") `Slow
              (tracing_is_inert name))
          [ "dv-plain"; "ecma"; "ls-hbh-pt"; "orwg" ] );
      ( "timeline",
        [
          Alcotest.test_case "windowed sampling + summary" `Quick
            timeline_samples_and_summarizes;
          Alcotest.test_case "engine observer does not affect drain" `Quick
            timeline_drives_from_engine_observer;
        ] );
      ("load profile", [ Alcotest.test_case "percentiles" `Quick load_profile_percentiles ]);
      ("sweep", [ Alcotest.test_case "--trace emits valid files" `Slow sweep_trace_files ]);
    ]
