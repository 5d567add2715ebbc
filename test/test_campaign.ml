(* Unit tests for the pr_campaign experiment-orchestration subsystem:
   JSON codec, grid expansion, forked worker pool (including crash
   isolation and per-run timeouts), the JSONL sink's resume semantics,
   aggregation, and the end-to-end driver. *)

module J = Pr_util.Json
module Grid = Pr_campaign.Grid
module Exec = Pr_campaign.Exec
module Pool = Pr_campaign.Pool
module Sink = Pr_campaign.Sink
module Aggregate = Pr_campaign.Aggregate
module Driver = Pr_campaign.Driver

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let temp_jsonl () =
  let path = Filename.temp_file "campaign_test" ".jsonl" in
  Sys.remove path;
  path

(* --- Json ----------------------------------------------------------- *)

let json_roundtrip () =
  let doc =
    J.Obj
      [
        ("id", J.String "a/b \"quoted\"\nline");
        ("count", J.Int (-42));
        ("ratio", J.Float 1.5);
        ("whole", J.Float 3.0);
        ("on", J.Bool true);
        ("nothing", J.Null);
        ("items", J.List [ J.Int 1; J.String "x"; J.List []; J.Obj [] ]);
      ]
  in
  match J.parse (J.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = doc)
  | Error e -> Alcotest.fail e

let json_pretty_parses () =
  let doc = J.Obj [ ("a", J.List [ J.Int 1; J.Int 2 ]); ("b", J.Obj [ ("c", J.Null) ]) ] in
  match J.parse (J.to_string_pretty doc) with
  | Ok parsed -> check_bool "pretty form parses back" true (parsed = doc)
  | Error e -> Alcotest.fail e

let json_rejects_garbage () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\" 1}"; "12 34"; "\"unterminated"; "nul" ] in
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    bad

let json_numbers () =
  (match J.parse "17" with
  | Ok (J.Int 17) -> ()
  | _ -> Alcotest.fail "int");
  (match J.parse "-2.5e2" with
  | Ok (J.Float f) -> Alcotest.(check (float 1e-9)) "float" (-250.0) f
  | _ -> Alcotest.fail "float");
  match J.parse (J.to_string (J.Float 2.0)) with
  | Ok v -> Alcotest.(check (float 1e-9)) "whole float survives" 2.0 (Result.get_ok (J.to_float v))
  | Error e -> Alcotest.fail e

let json_members () =
  let doc = J.Obj [ ("n", J.Int 3); ("s", J.String "x") ] in
  check_int "int member" 3 (Result.get_ok (J.int_member "n" doc));
  check_string "string member" "x" (Result.get_ok (J.string_member "s" doc));
  check_bool "missing is Error" true (Result.is_error (J.int_member "zzz" doc));
  check_bool "wrong type is Error" true (Result.is_error (J.int_member "s" doc))

(* --- Grid ----------------------------------------------------------- *)

let toy_spec =
  {
    Grid.protocols = [ "ecma"; "orwg" ];
    sizes = [ 14 ];
    restrictiveness = [ 0.0; 0.5 ];
    granularities = [ Pr_policy.Gen.Source_specific ];
    churn = [ false ];
    fault_profiles = [ "none" ];
    replicates = 1;
    base_seed = 42;
    flows = 5;
    max_events = 1_000_000;
  }

let grid_expansion_count () =
  check_int "toy grid" 4 (List.length (Grid.expand toy_spec));
  check_int "default grid is a >=24-run campaign" 32
    (List.length (Grid.expand Grid.default))

let grid_deterministic () =
  let a = Grid.expand toy_spec and b = Grid.expand toy_spec in
  check_bool "expansion is a pure function of the spec" true (a = b);
  let ids = List.map (fun (r : Grid.run) -> r.Grid.id) a in
  check_bool "ids distinct" true (List.length (List.sort_uniq compare ids) = List.length ids);
  check_string "stable id scheme" "ecma/n14/r0.00/gsource-specific/static/fnone/rep0"
    (List.hd ids)

let grid_default_covers_designs () =
  let runs = Grid.expand Grid.default in
  let protos = List.sort_uniq compare (List.map (fun (r : Grid.run) -> r.Grid.protocol) runs) in
  Alcotest.(check (list string)) "all four section-5 design points"
    [ "ecma"; "idrp"; "ls-hbh-pt"; "orwg" ]
    protos;
  List.iter
    (fun (r : Grid.run) ->
      check_bool "every default protocol is registered" true
        (Option.is_some (Pr_core.Registry.find_opt r.Grid.protocol)))
    runs

let grid_replicates_vary_seed () =
  let spec = { toy_spec with replicates = 3; protocols = [ "ecma" ]; restrictiveness = [ 0.0 ] } in
  let seeds = List.map (fun (r : Grid.run) -> r.Grid.seed) (Grid.expand spec) in
  Alcotest.(check (list int)) "seeds derive from replicate" [ 42; 43; 44 ] seeds

(* --- Exec ----------------------------------------------------------- *)

let sample_run ?(protocol = "ecma") ?(churn = false) ?(faults = "none") () =
  {
    Grid.id =
      Grid.id_of ~protocol ~size:14 ~restrictiveness:0.0
        ~granularity:Pr_policy.Gen.Source_specific ~churn ~faults ~replicate:0;
    protocol;
    size = 14;
    restrictiveness = 0.0;
    granularity = Pr_policy.Gen.Source_specific;
    churn;
    faults;
    replicate = 0;
    seed = 42;
    flows = 5;
    max_events = 1_000_000;
  }

let exec_measures () =
  match Exec.execute (sample_run ()) with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check_bool "converged" true t.Exec.converged;
    check_string "stop reason" "drained" t.Exec.stop_reason;
    check_bool "messages counted" true (t.Exec.messages > 0);
    check_bool "state counted" true (t.Exec.table_total > 0);
    check_bool "workload ran" true (t.Exec.delivered > 0);
    (* Determinism: a second execution measures identical totals. *)
    let t' = Result.get_ok (Exec.execute (sample_run ())) in
    check_int "deterministic messages" t.Exec.messages t'.Exec.messages;
    check_int "deterministic computations" t.Exec.computations t'.Exec.computations;
    check_int "deterministic state" t.Exec.table_total t'.Exec.table_total

let exec_churn_dimension () =
  let static = Result.get_ok (Exec.execute (sample_run ())) in
  let churned = Result.get_ok (Exec.execute (sample_run ~churn:true ())) in
  check_bool "churn run converges" true churned.Exec.converged;
  check_bool "churn costs extra control traffic" true
    (churned.Exec.messages > static.Exec.messages)

let exec_unknown_protocol () =
  let record = Exec.run_record (sample_run ~protocol:"no-such-protocol" ()) in
  check_string "status failed" "failed" (Result.get_ok (J.string_member "status" record));
  check_bool "readable error" true
    (Result.is_ok (J.string_member "error" record))

(* --- Pool ----------------------------------------------------------- *)

let fake_record (run : Grid.run) status =
  J.Obj (Grid.params_json run @ [ ("status", J.String status) ])

let pool_statuses () =
  let runs =
    List.map
      (fun protocol -> { (sample_run ()) with Grid.protocol; id = protocol })
      [ "quick-1"; "quick-2"; "crasher"; "hanger"; "raiser"; "quick-3" ]
  in
  let exec (run : Grid.run) =
    match run.Grid.id with
    | "crasher" -> Unix._exit 66
    | "hanger" ->
      Unix.sleepf 3600.0;
      fake_record run "ok"
    | "raiser" -> failwith "boom"
    | _ -> fake_record run "ok"
  in
  let outcomes = ref [] in
  let ok, not_ok =
    Pool.run_all ~jobs:3 ~timeout_s:1.0 ~quiet:true ~exec
      ~on_outcome:(fun o -> outcomes := o :: !outcomes)
      runs
  in
  check_int "ok runs" 3 ok;
  check_int "not-ok runs" 3 not_ok;
  check_int "every run reported" 6 (List.length !outcomes);
  let status_of id =
    let o = List.find (fun (o : Pool.outcome) -> o.Pool.run.Grid.id = id) !outcomes in
    Pool.status_to_string o.Pool.status
  in
  check_string "crash isolated" "crashed" (status_of "crasher");
  check_string "hang killed by timeout" "timed-out" (status_of "hanger");
  check_string "exception folded to failure" "failed" (status_of "raiser");
  check_string "others unaffected" "ok" (status_of "quick-1");
  (* Every outcome, however the worker died, carries a full JSONL
     record with the run id. *)
  List.iter
    (fun (o : Pool.outcome) ->
      check_string "record id" o.Pool.run.Grid.id
        (Result.get_ok (J.string_member "id" o.Pool.record)))
    !outcomes

let pool_parallelism () =
  (* Four workers sleeping 0.3s each on 4 jobs must beat 4 x 0.3s
     sequential by a wide margin. *)
  let runs =
    List.init 4 (fun i -> { (sample_run ()) with Grid.id = Printf.sprintf "sleep-%d" i })
  in
  let exec run =
    Unix.sleepf 0.3;
    fake_record run "ok"
  in
  let t0 = Unix.gettimeofday () in
  let ok, _ =
    Pool.run_all ~jobs:4 ~timeout_s:10.0 ~quiet:true ~exec ~on_outcome:ignore runs
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_int "all ok" 4 ok;
  check_bool
    (Printf.sprintf "ran in parallel (%.2fs)" elapsed)
    true (elapsed < 0.9)

(* --- Sink ----------------------------------------------------------- *)

let sink_last_record_wins () =
  let path = temp_jsonl () in
  let oc = open_out path in
  Sink.append oc (J.Obj [ ("id", J.String "a"); ("status", J.String "crashed") ]);
  Sink.append oc (J.Obj [ ("id", J.String "b"); ("status", J.String "ok") ]);
  output_string oc "this line is not JSON\n";
  Sink.append oc (J.Obj [ ("status", J.String "ok") ]) (* no id *);
  Sink.append oc (J.Obj [ ("id", J.String "a"); ("status", J.String "ok") ]);
  close_out oc;
  let sink = Sink.read ~path in
  Sys.remove path;
  check_int "two ids" 2 (List.length sink.Sink.records);
  check_int "malformed lines counted" 2 sink.Sink.malformed;
  let completed = Sink.completed_ids sink in
  check_bool "a completed (latest wins)" true (Hashtbl.mem completed "a");
  check_bool "b completed" true (Hashtbl.mem completed "b");
  (* First-appearance order. *)
  check_string "order preserved" "a" (fst (List.hd sink.Sink.records))

let sink_missing_file () =
  let sink = Sink.read ~path:"/nonexistent/campaign.jsonl" in
  check_int "empty" 0 (List.length sink.Sink.records);
  check_int "no malformed" 0 sink.Sink.malformed

let sink_incomplete_not_skipped () =
  let path = temp_jsonl () in
  let oc = open_out path in
  Sink.append oc (J.Obj [ ("id", J.String "a"); ("status", J.String "timed-out") ]);
  Sink.append oc (J.Obj [ ("id", J.String "b"); ("status", J.String "failed") ]);
  close_out oc;
  let completed = Sink.completed_ids (Sink.read ~path) in
  Sys.remove path;
  check_int "nothing completed" 0 (Hashtbl.length completed)

(* --- Aggregate ------------------------------------------------------- *)

let aggregate_groups_by_protocol () =
  let record protocol status extra =
    J.Obj
      ([
         ("id", J.String (protocol ^ "/" ^ status ^ string_of_int (List.length extra)));
         ("protocol", J.String protocol);
         ("status", J.String status);
       ]
      @ extra)
  in
  let sink =
    {
      Sink.records =
        [
          ("1", record "ecma" "ok" [ ("messages", J.Int 10); ("flows", J.Int 5); ("delivered", J.Int 4); ("table_max", J.Int 7) ]);
          ("2", record "ecma" "ok" [ ("messages", J.Int 20); ("flows", J.Int 5); ("delivered", J.Int 5); ("table_max", J.Int 3) ]);
          ("3", record "orwg" "crashed" []);
          ("4", record "orwg" "timed-out" []);
        ];
      malformed = 0;
    }
  in
  match Aggregate.rows sink with
  | [ ecma; orwg ] ->
    check_string "first group" "ecma" ecma.Aggregate.protocol;
    check_int "summed messages" 30 ecma.Aggregate.messages;
    check_int "max of table_max" 7 ecma.Aggregate.table_max;
    check_int "delivered" 9 ecma.Aggregate.delivered;
    check_bool "design point resolved" true (ecma.Aggregate.design_point <> "?");
    check_int "orwg crashed" 1 orwg.Aggregate.crashed;
    check_int "orwg timed out" 1 orwg.Aggregate.timed_out;
    check_int "orwg nothing ok" 0 orwg.Aggregate.ok
  | rows -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length rows))

(* A results file resumed across builds can give one metric two kinds:
   the record whose snapshot clashes is left out of the merged
   telemetry, whole, instead of aborting the summary. *)
let aggregate_skips_kind_clash () =
  let module Reg = Pr_telemetry.Registry in
  let record id snap =
    ( id,
      J.Obj
        [
          ("id", J.String id);
          ("protocol", J.String "ecma");
          ("status", J.String "ok");
          ("telemetry", Reg.snapshot_to_json snap);
        ] )
  in
  let sink =
    {
      Sink.records =
        [
          record "a" [ ("engine.events", Reg.Counter 5) ];
          record "b" [ ("engine.events", Reg.Gauge 3.0); ("net.sends", Reg.Counter 1) ];
          record "c" [ ("engine.events", Reg.Counter 7) ];
        ];
      malformed = 0;
    }
  in
  let summary = Aggregate.summary_json sink in
  match Reg.snapshot_of_json (Option.get (J.member "telemetry" summary)) with
  | Error e -> Alcotest.fail e
  | Ok snap ->
    check_bool "clashing record skipped, the others merged" true
      (snap = [ ("engine.events", Reg.Counter 12) ])

(* --- Driver (end to end) --------------------------------------------- *)

let driver_end_to_end_and_resume () =
  let path = temp_jsonl () in
  let crash_id = "ecma/n14/r0.50/gsource-specific/static/fnone/rep0" in
  (* First invocation: one injected crash. *)
  let r1 =
    Driver.sweep ~jobs:2 ~timeout_s:30.0 ~quiet:true
      ~chaos:{ Exec.crash_id = Some crash_id; hang_id = None }
      ~out:path toy_spec
  in
  check_int "grid size" 4 r1.Driver.total;
  check_int "nothing skipped on first run" 0 r1.Driver.skipped;
  check_int "three completed" 3 r1.Driver.ok;
  check_int "one crashed" 1 r1.Driver.not_ok;
  (* Second invocation, no chaos: resumes, re-running only the crash. *)
  let r2 = Driver.sweep ~jobs:2 ~timeout_s:30.0 ~quiet:true ~out:path toy_spec in
  check_int "completed runs skipped" 3 r2.Driver.skipped;
  check_int "only the crashed run re-ran" 1 r2.Driver.executed;
  check_int "and completed" 1 r2.Driver.ok;
  (* Third invocation: everything is complete; nothing executes. *)
  let r3 = Driver.sweep ~jobs:2 ~timeout_s:30.0 ~quiet:true ~out:path toy_spec in
  check_int "fully resumed" 4 r3.Driver.skipped;
  check_int "nothing to do" 0 r3.Driver.executed;
  (* The final file holds 5 attempts, latest-per-id all ok. *)
  let sink = Sink.read ~path in
  Sys.remove path;
  check_int "four runs on record" 4 (List.length sink.Sink.records);
  check_int "all completed" 4 (Hashtbl.length (Sink.completed_ids sink));
  match Aggregate.rows sink with
  | rows ->
    check_int "both protocols aggregated" 2 (List.length rows);
    List.iter
      (fun row ->
        check_int
          (row.Aggregate.protocol ^ " all ok after resume")
          row.Aggregate.runs row.Aggregate.ok)
      rows

let driver_summary_schema () =
  let path = temp_jsonl () in
  let summary_path = Filename.temp_file "campaign_test" ".json" in
  let spec = { toy_spec with protocols = [ "ecma" ]; restrictiveness = [ 0.0 ] } in
  let report = Driver.sweep ~jobs:1 ~quiet:true ~summary_path ~out:path spec in
  let on_disk = Result.get_ok (J.parse (In_channel.with_open_text summary_path In_channel.input_all)) in
  Sys.remove path;
  Sys.remove summary_path;
  check_bool "summary written equals report summary" true (on_disk = report.Driver.summary);
  match Pr_telemetry.Gate.document_of_json on_disk with
  | Error e -> Alcotest.fail e
  | Ok (benchmark, rows) -> (
    check_string "benchmark tag" "campaign" benchmark;
    check_bool "merged telemetry rides beside the rows" true
      (J.member "telemetry" on_disk <> None);
    match rows with
    | [ row ] ->
      check_string "layer" "converge" row.Pr_telemetry.Gate.layer;
      check_bool "config names the protocol" true
        (row.Pr_telemetry.Gate.config = [ ("protocol", J.String "ecma") ]);
      check_bool "runs" true (List.assoc_opt "runs" row.Pr_telemetry.Gate.exact = Some (J.Int 1));
      List.iter
        (fun field ->
          check_bool (field ^ " exact") true
            (List.mem_assoc field row.Pr_telemetry.Gate.exact))
        [ "messages"; "bytes"; "computations"; "transit_computations"; "table_total"; "table_max" ];
      check_bool "wall clock banded" true
        (List.mem_assoc "wall_s" row.Pr_telemetry.Gate.band)
    | _ -> Alcotest.fail "expected one design-point row")

let () =
  Alcotest.run "pr_campaign"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "pretty parses" `Quick json_pretty_parses;
          Alcotest.test_case "rejects garbage" `Quick json_rejects_garbage;
          Alcotest.test_case "numbers" `Quick json_numbers;
          Alcotest.test_case "members" `Quick json_members;
        ] );
      ( "grid",
        [
          Alcotest.test_case "expansion count" `Quick grid_expansion_count;
          Alcotest.test_case "deterministic" `Quick grid_deterministic;
          Alcotest.test_case "default covers section-5 designs" `Quick
            grid_default_covers_designs;
          Alcotest.test_case "replicates vary seed" `Quick grid_replicates_vary_seed;
        ] );
      ( "exec",
        [
          Alcotest.test_case "measures a run" `Quick exec_measures;
          Alcotest.test_case "churn dimension" `Quick exec_churn_dimension;
          Alcotest.test_case "unknown protocol" `Quick exec_unknown_protocol;
        ] );
      ( "pool",
        [
          Alcotest.test_case "statuses" `Quick pool_statuses;
          Alcotest.test_case "parallelism" `Quick pool_parallelism;
        ] );
      ( "sink",
        [
          Alcotest.test_case "last record wins" `Quick sink_last_record_wins;
          Alcotest.test_case "missing file" `Quick sink_missing_file;
          Alcotest.test_case "incomplete not skipped" `Quick sink_incomplete_not_skipped;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "groups by protocol" `Quick aggregate_groups_by_protocol;
          Alcotest.test_case "telemetry kind clash skips the record" `Quick
            aggregate_skips_kind_clash;
        ] );
      ( "driver",
        [
          Alcotest.test_case "end to end + resume" `Quick driver_end_to_end_and_resume;
          Alcotest.test_case "summary schema" `Quick driver_summary_schema;
        ] );
    ]
