module J = Pr_util.Json
module Rng = Pr_util.Rng
module Graph = Pr_topology.Graph
module Engine = Pr_sim.Engine
module Runner = Pr_proto.Runner
module Registry = Pr_core.Registry
module Scenario = Pr_core.Scenario
module Trace = Pr_obs.Trace
module Timeline = Pr_obs.Timeline
module Telemetry = Pr_telemetry.Registry

let ( let* ) = Result.bind

type chaos = { crash_id : string option; hang_id : string option }

let no_chaos = { crash_id = None; hang_id = None }

type t = {
  run : Grid.run;
  converged : bool;
  stop_reason : string;
  outcome : string;
  sim_time : float;
  costs : Runner.costs;
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
      ~churn:run.churn
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
      costs = report.C.costs;
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
  match Pr_faults.Chaos.find_protocol run.protocol with
  | Error _ as e -> e
  | Ok (Registry.Packed (module P) as packed) -> (
    match Pr_faults.Plan.profile run.faults with
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
    let timeline = if trace_dir = None then None else Some (R.timeline r) in
    if run.churn then Pr_sim.Churn.standard (R.network r) ~seed:run.seed;
    let c = R.converge ~max_events:run.max_events r in
    let rng = Rng.create (run.seed + 2) in
    let flows = Scenario.flows scenario ~rng ~count:run.flows () in
    let delivered =
      List.fold_left
        (fun acc f -> if Pr_proto.Forwarding.delivered (R.send_flow r f) then acc + 1 else acc)
        0 flows
    in
    let* trace_file =
      match trace_dir with
      | None -> Ok None
      | Some dir ->
        let file = trace_filename run in
        Option.iter
          (fun tl -> Timeline.finish tl ~now:(Engine.now (Pr_sim.Network.engine (R.network r))))
          timeline;
        let* () = J.write_file ~path:(Filename.concat dir file) (Trace.to_json trace) in
        Ok (Some file)
    in
    Ok
      {
        run;
        converged = c.Runner.converged;
        stop_reason = (if c.Runner.converged then "drained" else "event-budget");
        outcome = (if c.Runner.converged then "completed" else "budget_exhausted");
        sim_time = c.Runner.sim_time;
        costs = R.costs r;
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
      ]
    @ Runner.cost_fields t.costs Runner.cost_keys
    @ [
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
