module J = Pr_util.Json
module Rng = Pr_util.Rng
module Stats = Pr_util.Stats
module Graph = Pr_topology.Graph
module Metrics = Pr_sim.Metrics
module Engine = Pr_sim.Engine
module Runner = Pr_proto.Runner
module Registry = Pr_core.Registry
module Scenario = Pr_core.Scenario
module Trace = Pr_obs.Trace
module Timeline = Pr_obs.Timeline
module Telemetry = Pr_telemetry.Registry

type chaos = { crash_id : string option; hang_id : string option }

let no_chaos = { crash_id = None; hang_id = None }

type t = {
  run : Grid.run;
  converged : bool;
  stop_reason : string;
  outcome : string;
  sim_time : float;
  messages : int;
  bytes : int;
  computations : int;
  transit_computations : int;
  msgs_lost : int;
  table_total : int;
  table_max : int;
  msg_max : int;
  msg_mean : float;
  msg_p90 : float;
  tbl_p90 : float;
  delivered : int;
  loop_violations : int;
  blackhole_violations : int;
  containment_violations : int;
  updates_rejected : int;
  quarantines : int;
  chaos_fields : (string * J.t) list;
  wall_s : float;
  trace_file : string option;
  trace_dropped : int;
  time_to_first_route : float option;
}

(* Churn parameters: enough flips to interleave with convergence, an
   even count so the topology ends where it started and every run's
   workload is measured on the full internet. *)
let churn_events = 6

let churn_spacing = 4.0

let apply_chaos chaos (run : Grid.run) =
  (match chaos.crash_id with
  | Some id when id = run.id -> Unix._exit 66
  | _ -> ());
  match chaos.hang_id with
  | Some id when id = run.id ->
    let rec forever () =
      Unix.sleepf 3600.0;
      forever ()
    in
    forever ()
  | _ -> ()

let trace_filename (run : Grid.run) =
  String.map (fun c -> if c = '/' then '_' else c) run.id ^ ".json"

let scenario_of (run : Grid.run) =
  let policy =
    {
      Pr_policy.Gen.default with
      restrictiveness = run.restrictiveness;
      granularity = run.granularity;
    }
  in
  Scenario.for_size ~policy ~target_ads:run.size ~seed:run.seed ()

(* A fault-profile run goes through the resilience harness: the plan
   plays out during convergence, the workload doubles as the probe set,
   and invariant violations land in the JSONL record. An exhausted
   event budget is a *result* here ([outcome = "budget_exhausted"] with
   partial metrics), not a worker failure to retry. *)
let execute_faulted packed (run : Grid.run) plan =
  let started = Unix.gettimeofday () in
  let scenario = scenario_of run in
  match Pr_faults.Plan.check_ads plan ~n:(Graph.n scenario.Scenario.graph) with
  | Error e -> Error (Printf.sprintf "fault profile %S: %s" run.faults e)
  | Ok () ->
  ignore (Pr_policy.Policy_store.of_config scenario.Scenario.config);
  let flows =
    Scenario.flows scenario ~rng:(Rng.create (run.seed + 2)) ~count:run.flows ()
  in
  let report =
    Pr_faults.Chaos.run ~plan ~flows
      ?churn:(if run.churn then Some (churn_events, churn_spacing) else None)
      ~max_events:run.max_events packed scenario
  in
  let module C = Pr_faults.Chaos in
  Ok
    {
      run;
      converged = report.C.converged;
      stop_reason = report.C.stop_reason;
      outcome = (if report.C.converged then "completed" else "budget_exhausted");
      sim_time = report.C.sim_time;
      messages = report.C.messages;
      bytes = report.C.bytes;
      computations = report.C.computations;
      transit_computations = report.C.transit_computations;
      msgs_lost = report.C.msgs_lost;
      table_total = report.C.table_total;
      table_max = report.C.table_max;
      msg_max = report.C.msg_max;
      msg_mean = report.C.msg_mean;
      msg_p90 = report.C.msg_p90;
      tbl_p90 = report.C.tbl_p90;
      delivered = report.C.delivered;
      loop_violations = C.loop_violations report;
      blackhole_violations = C.blackhole_violations report;
      containment_violations = C.containment_violations report;
      updates_rejected = report.C.updates_rejected;
      quarantines = report.C.quarantines;
      chaos_fields =
        [
          ("reconvergence_time", J.Float report.C.reconvergence_time);
          ("transient_loops", J.Int report.C.transient_loops);
          ("baseline_delivered", J.Int report.C.baseline_delivered);
          ("faults_fired", J.Int (List.length report.C.fault_log));
        ];
      wall_s = Unix.gettimeofday () -. started;
      trace_file = None;
      trace_dropped = 0;
      time_to_first_route = None;
    }

let execute ?(chaos = no_chaos) ?trace_dir (run : Grid.run) =
  apply_chaos chaos run;
  match Registry.find_opt run.protocol with
  | None ->
    Error
      (Printf.sprintf "unknown protocol %S (known: %s)" run.protocol
         (String.concat ", " (Registry.names Registry.all)))
  | Some (Registry.Packed (module P) as packed) -> (
    match
      if run.faults = "none" then Some []
      else Pr_faults.Plan.profile run.faults
    with
    | None ->
      Error
        (Printf.sprintf "unknown fault profile %S (known: %s)" run.faults
           (String.concat ", " Pr_faults.Plan.profile_names))
    | Some plan when run.faults <> "none" -> execute_faulted packed run plan
    | Some _ ->
    let started = Unix.gettimeofday () in
    let scenario = scenario_of run in
    (* Pre-warm the shared compiled-policy store for this run's
       configuration: the protocol instance and every post-convergence
       flow probe then share one compilation per AD. *)
    ignore (Pr_policy.Policy_store.of_config scenario.Scenario.config);
    let g = scenario.Scenario.graph in
    let module R = Runner.Make (P) in
    let trace =
      match trace_dir with
      | Some _ -> Trace.create ()
      | None -> Trace.disabled
    in
    let r = R.setup ~trace g scenario.Scenario.config in
    let m = R.metrics r in
    let table_total () =
      let acc = ref 0 in
      for ad = 0 to Graph.n g - 1 do
        acc := !acc + P.table_entries (R.protocol r) ad
      done;
      !acc
    in
    let timeline =
      if trace_dir = None then None
      else
        Some
          (Timeline.create
             ~series:[ "messages"; "computations"; "table-entries" ]
             ~probe:(fun () ->
               [|
                 float_of_int (Metrics.messages m);
                 float_of_int (Metrics.computations m);
                 float_of_int (table_total ());
               |])
             trace)
    in
    let engine = Pr_sim.Network.engine (R.network r) in
    Option.iter
      (fun tl ->
        Engine.set_observer engine (Some (fun ~time ~pending:_ -> Timeline.observe tl ~now:time)))
      timeline;
    if run.churn then
      Pr_sim.Churn.schedule (R.network r)
        (Rng.derive run.seed "churn")
        ~events:churn_events ~spacing:churn_spacing ();
    let c = R.converge ~max_events:run.max_events r in
    let rng = Rng.create (run.seed + 2) in
    let flows = Scenario.flows scenario ~rng ~count:run.flows () in
    let delivered =
      List.fold_left
        (fun acc f -> if Pr_proto.Forwarding.delivered (R.send_flow r f) then acc + 1 else acc)
        0 flows
    in
    let transit_computations =
      List.fold_left
        (fun acc ad -> acc + Metrics.computations_of m ad)
        0 (Graph.transit_ids g)
    in
    (* Per-AD skew: the §5.2.1/§5.3 arguments are about the
       worst-loaded AD, not the totals. *)
    let n = Graph.n g in
    let per_ad_msgs = List.init n (fun ad -> float_of_int (Metrics.messages_of m ad)) in
    let per_ad_tbls = List.init n (fun ad -> float_of_int (P.table_entries (R.protocol r) ad)) in
    let msg_max =
      List.fold_left (fun acc ad -> Stdlib.max acc (Metrics.messages_of m ad)) 0
        (List.init n Fun.id)
    in
    let trace_file =
      Option.map
        (fun dir ->
          let file = trace_filename run in
          Option.iter (fun tl -> Timeline.finish tl ~now:(Engine.now engine)) timeline;
          Trace.write ~path:(Filename.concat dir file) trace;
          file)
        trace_dir
    in
    Ok
      {
        run;
        converged = c.Runner.converged;
        stop_reason = (if c.Runner.converged then "drained" else "event-budget");
        outcome = (if c.Runner.converged then "completed" else "budget_exhausted");
        sim_time = c.Runner.sim_time;
        messages = Metrics.messages m;
        bytes = Metrics.bytes m;
        computations = Metrics.computations m;
        transit_computations;
        msgs_lost = Metrics.msgs_lost m;
        table_total = R.table_entries r;
        table_max = R.max_table_entries r;
        msg_max;
        msg_mean = Stats.mean per_ad_msgs;
        msg_p90 = Stats.percentile per_ad_msgs 90.0;
        tbl_p90 = Stats.percentile per_ad_tbls 90.0;
        delivered;
        loop_violations = 0;
        blackhole_violations = 0;
        containment_violations = 0;
        updates_rejected = 0;
        quarantines = 0;
        chaos_fields = [];
        wall_s = Unix.gettimeofday () -. started;
        trace_file;
        trace_dropped = Trace.dropped trace;
        time_to_first_route =
          Option.bind timeline (fun tl -> Timeline.first_nonzero tl "table-entries");
      })

let to_json t =
  J.Obj
    (Grid.params_json t.run
    @ [
        ("status", J.String "ok");
        ("converged", J.Bool t.converged);
        ("stop_reason", J.String t.stop_reason);
        ("outcome", J.String t.outcome);
        ("sim_time", J.Float t.sim_time);
        ("messages", J.Int t.messages);
        ("bytes", J.Int t.bytes);
        ("computations", J.Int t.computations);
        ("transit_computations", J.Int t.transit_computations);
        ("msgs_lost", J.Int t.msgs_lost);
        ("table_total", J.Int t.table_total);
        ("table_max", J.Int t.table_max);
        ("msg_max", J.Int t.msg_max);
        ("msg_mean", J.Float t.msg_mean);
        ("msg_p90", J.Float t.msg_p90);
        ("tbl_p90", J.Float t.tbl_p90);
        ("delivered", J.Int t.delivered);
        ("loop_violations", J.Int t.loop_violations);
        ("blackhole_violations", J.Int t.blackhole_violations);
        ("containment_violations", J.Int t.containment_violations);
        ("updates_rejected", J.Int t.updates_rejected);
        ("quarantines", J.Int t.quarantines);
        ("wall_s", J.Float t.wall_s);
      ]
    @ t.chaos_fields
    @ (match t.trace_file with
      | Some f ->
        (* Surface truncation: a full recorder silently drops newest
           events, and a nonzero count here tells the reader the trace
           under trace_file is a prefix of the run. *)
        [ ("trace_file", J.String f); ("trace_dropped", J.Int t.trace_dropped) ]
      | None -> [])
    @
    match t.time_to_first_route with
    | Some ts -> [ ("time_to_first_route", J.Float ts) ]
    | None -> [])

let run_record ?chaos ?trace_dir run =
  (* Workers are forked per run, so the process-global registry delta
     around the run is exactly this run's telemetry; the JSONL record
     carries the snapshot diff for Aggregate to merge across shards. *)
  let before = Telemetry.snapshot Telemetry.default in
  match execute ?chaos ?trace_dir run with
  | Ok t ->
    Pr_telemetry.Alloc.sample ();
    let telemetry =
      Telemetry.diff ~after:(Telemetry.snapshot Telemetry.default) ~before
    in
    (match to_json t with
    | J.Obj fields ->
      J.Obj (fields @ [ ("telemetry", Telemetry.snapshot_to_json telemetry) ])
    | other -> other)
  | Error msg ->
    J.Obj
      (Grid.params_json run
      @ [ ("status", J.String "failed"); ("error", J.String msg) ])
