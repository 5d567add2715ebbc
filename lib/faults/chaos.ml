module J = Pr_util.Json
module Rng = Pr_util.Rng
module Stats = Pr_util.Stats
module Graph = Pr_topology.Graph
module Link = Pr_topology.Link
module Flow = Pr_policy.Flow
module Engine = Pr_sim.Engine
module Network = Pr_sim.Network
module Metrics = Pr_sim.Metrics
module Churn = Pr_sim.Churn
module Runner = Pr_proto.Runner
module Forwarding = Pr_proto.Forwarding
module Packet = Pr_proto.Packet
module Registry = Pr_core.Registry
module Scenario = Pr_core.Scenario
module Trace = Pr_obs.Trace
module Guard = Pr_guard.Guard

type violation = {
  time : float;
  kind : string;
  flow : (Pr_topology.Ad.id * Pr_topology.Ad.id) option;
  detail : string;
}

type report = {
  protocol : string;
  scenario : string;
  seed : int;
  plan : string;
  guard : string;
  attackers : Pr_topology.Ad.id list;
  converged : bool;
  stop_reason : string;
  sim_time : float;
  events : int;
  reconvergence_time : float;
  fault_log : (float * string) list;
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_reordered : int;
  msgs_corrupted : int;
  msgs_replayed : int;
  msgs_forged : int;
  updates_rejected : int;
  quarantines : int;
  quarantine_drops : int;
  readmissions : int;
  checks : int;
  transient_loops : int;
  attack_probes : int;
  attack_delivered : int;
  probes : int;
  baseline_delivered : int;
  delivered : int;
  violations : violation list;
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
}

let count_kind t kind =
  List.length (List.filter (fun v -> v.kind = kind) t.violations)

let loop_violations t = count_kind t "loop"

let blackhole_violations t = count_kind t "blackhole"

let containment_violations t = count_kind t "containment"

let availability_violations t = count_kind t "availability"

let find_protocol name =
  if name = Broken.name then Some Broken.packed else Registry.find_opt name

(* How many packets a flow gets before "undeliverable" is final.
   Retries matter: ORWG answers a broken cached route by dropping the
   packet and re-signaling setup, so the repaired route only carries
   the *next* packet (§5.4) — that is recovery, not a blackhole. *)
let probe_attempts = 3

(* Flows probed at each mid-run checkpoint (a subset: checkpoints run
   inside the event queue while the system is still disturbed, and
   only gather the transient-loop statistic, never violations). *)
let checkpoint_flows = 10

let run ?(plan = Plan.default) ?(guard = Guard.default_config) ?flows
    ?(probes = 40) ?churn ?max_events ?(trace = Trace.disabled)
    (Registry.Packed (module P) : Registry.packed) (scenario : Scenario.t) =
  let module R = Runner.Make (P) in
  (* A post-mortem covers this run only: an earlier run in this process
     restarted simulated time, so its events would read as time going
     backwards. The faulted run and its baseline below share the ring. *)
  Trace.clear Trace.flight;
  let guard_cfg = guard in
  let seed = scenario.Scenario.seed in
  let g = scenario.Scenario.graph in
  let flows =
    match flows with
    | Some fs -> fs
    | None -> Scenario.flows scenario ~rng:(Rng.derive seed "chaos-probes") ~count:probes ()
  in
  (* Pre-warm the shared compiled-policy store: the faulted run, the
     residual-topology baseline below, and every validation probe all
     key off this configuration, so the terms compile exactly once. *)
  ignore (Pr_policy.Policy_store.of_config scenario.Scenario.config);
  let r = R.setup ~trace g scenario.Scenario.config in
  let engine = Network.engine (R.network r) in
  (* The update guard interposes on every AD's receive path and link
     observations — uniformly, the attacker included (it is just
     another suspicious domain). Readmission replays the adjacency
     bring-up exchange so state dropped during a quarantine is
     recovered. Benign traffic is untouched: every honest update
     passes [check_update] by contract, and the benign storm spreads
     its flaps over random links, far below the suppress threshold. *)
  let guard =
    Guard.create ~config:guard_cfg ~engine ~n:(Graph.n g)
      ~on_readmit:(fun ~at ~nbr -> R.resync r ~at ~nbr)
      ()
  in
  if guard_cfg.Guard.enabled then begin
    R.set_receive_filter r
      (Some
         (fun ~at ~from msg ->
           Guard.screen guard ~at ~from (R.check_update r ~at ~from msg)));
    R.set_link_tap r
      (Some (fun ~at ~nbr ~up -> Guard.observe_link guard ~at ~nbr ~up))
  end;
  let nem =
    Nemesis.install (R.network r)
      ~rng:(Rng.derive seed "faults")
      ~crash:(fun ad -> R.crash_ad r ad)
      ~restart:(fun ad -> R.restart_ad r ad)
      ~corrupt:(fun rng msg -> R.corrupt_update r ~rng msg)
      ~forge:(fun ~origin -> R.forge_update r ~origin)
      plan
  in
  let attackers = Nemesis.attackers nem in
  let is_attacker ad = List.mem ad attackers in
  let honest_flow (f : Flow.t) = not (is_attacker f.Flow.src || is_attacker f.Flow.dst) in
  Option.iter
    (fun (events, spacing) ->
      Churn.schedule (R.network r) (Rng.derive seed "churn") ~events ~spacing ())
    churn;
  (* Continuous checking: probe forwarding just after every incident.
     Loops observed here are *transient* — expected of hop-by-hop
     designs while databases disagree (experiment E10) — so they are
     reported as a statistic. Only loops that survive reconvergence
     become violations, below. *)
  let sample = List.filteri (fun i _ -> i < checkpoint_flows) flows in
  let checks = ref 0 in
  let transient_loops = ref 0 in
  (* Availability under attack (a statistic, like transient loops):
     how many honest-pair probes deliver while the adversary is live.
     Only gathered for Byzantine plans, so benign runs replay
     byte-identically. *)
  let attack_probes = ref 0 in
  let attack_delivered = ref 0 in
  List.iter
    (fun tm ->
      Engine.schedule_at engine ~time:(tm +. 0.25) (fun () ->
          incr checks;
          List.iter
            (fun f ->
              let outcome = R.send_flow r f in
              (match outcome with
              | Forwarding.Looped _ -> incr transient_loops
              | _ -> ());
              if attackers <> [] && honest_flow f then begin
                incr attack_probes;
                if Forwarding.delivered outcome then incr attack_delivered
              end)
            sample))
    (Plan.incident_times plan);
  let conv = R.converge ?max_events r in
  (* Damage the plan never repaired (crash without restart, partition
     without heal): the baseline gets the same residual topology, so
     comparing delivery isolates protocol failures from plain
     unreachability. Healing plans leave no residue and the baseline
     reduces to a clean converged run. *)
  let net = R.network r in
  let residual_links =
    List.rev
      (Graph.fold_links g ~init:[] ~f:(fun acc l ->
           if Network.link_is_up net l.Link.id then acc else l.Link.id :: acc))
  in
  let down_nodes =
    List.filter (fun ad -> not (Network.node_is_up net ad)) (List.init (Graph.n g) Fun.id)
  in
  let b = R.setup g scenario.Scenario.config in
  ignore (R.converge ?max_events b);
  if residual_links <> [] || down_nodes <> [] then begin
    List.iter (fun ad -> R.crash_ad b ad) down_nodes;
    List.iter (fun lid -> R.fail_link b lid) residual_links;
    ignore (R.converge ?max_events b)
  end;
  let deliver rr f =
    let rec go k last =
      if k = 0 then last
      else
        let o = R.send_flow rr f in
        match o with Forwarding.Delivered _ -> o | _ -> go (k - 1) o
    in
    go probe_attempts (Forwarding.Prep_failed { reason = "unprobed"; prep = Packet.no_prep })
  in
  let violations = ref [] in
  let violate ~flow kind detail =
    violations := { time = conv.Runner.sim_time; kind; flow; detail } :: !violations;
    let tid = match flow with Some (src, _) -> src | None -> 0 in
    Trace.note trace ~ts:conv.Runner.sim_time ~tid ~detail:(kind ^ ": " ^ detail)
      "invariant.violation";
    Pr_telemetry.Registry.(inc (counter default "chaos.violations"))
  in
  (* Containment: after reconvergence, no honest up AD may hold
     routing state its own validation would have rejected — poisoned
     metrics, policy-violating entries, fabricated adjacencies. This is
     the ground-truth check that a Byzantine neighbor's lies did not
     stick; it also fires on non-Byzantine plans if corruption ever
     leaks into tables. Attackers (and crashed ADs) are exempt: only
     honest state is contained. *)
  if conv.Runner.converged then
    List.iter
      (fun ad ->
        if (not (is_attacker ad)) && Network.node_is_up net ad then
          match R.audit_state r ~at:ad with
          | Some reason ->
            violate ~flow:None "containment" (Printf.sprintf "ad %d: %s" ad reason)
          | None -> ())
      (List.init (Graph.n g) Fun.id);
  (* Under a Byzantine plan only honest-pair flows are judged: a flow
     sourced at or destined to the attacker proves nothing about the
     protocol (the adversary may simply refuse to behave). An honest
     pair the baseline delivers but the attacked run does not is an
     availability-under-attack violation. *)
  let probed = if attackers = [] then flows else List.filter honest_flow flows in
  let baseline_delivered = ref 0 in
  let delivered = ref 0 in
  if conv.Runner.converged then
    List.iter
      (fun (f : Flow.t) ->
        let b_out = deliver b f in
        let f_out = deliver r f in
        if Forwarding.delivered b_out then incr baseline_delivered;
        if Forwarding.delivered f_out then incr delivered;
        let pair = Some (f.Flow.src, f.Flow.dst) in
        match f_out with
        | Forwarding.Looped _ ->
          violate ~flow:pair "loop" "forwarding loop after reconvergence"
        | _ ->
          if Forwarding.delivered b_out && not (Forwarding.delivered f_out) then
            let detail =
              match f_out with
              | Forwarding.Dropped { at; reason; _ } ->
                Printf.sprintf "dropped at ad %d: %s" at reason
              | Forwarding.Prep_failed { reason; _ } -> "route setup failed: " ^ reason
              | _ -> "undelivered"
            in
            let kind = if attackers = [] then "blackhole" else "availability" in
            violate ~flow:pair kind
              (detail ^ " (baseline on the same residual topology delivers)"))
      probed
  else
    violate ~flow:None "no-reconvergence"
      (Printf.sprintf "event budget exhausted after %d events" conv.Runner.events);
  let m = R.metrics r in
  let n = Graph.n g in
  let per_ad_msgs = List.init n (fun ad -> float_of_int (Metrics.messages_of m ad)) in
  let per_ad_tbls = List.init n (fun ad -> float_of_int (P.table_entries (R.protocol r) ad)) in
  {
    protocol = P.name;
    scenario = scenario.Scenario.label;
    seed;
    plan = Plan.to_string plan;
    guard = Guard.config_to_string guard_cfg;
    attackers;
    converged = conv.Runner.converged;
    stop_reason = (if conv.Runner.converged then "drained" else "event-budget");
    sim_time = conv.Runner.sim_time;
    events = conv.Runner.events;
    reconvergence_time =
      Stdlib.max 0.0 (conv.Runner.sim_time -. Plan.last_incident_time plan);
    fault_log = Nemesis.fault_log nem;
    msgs_dropped = Nemesis.dropped nem;
    msgs_duplicated = Nemesis.duplicated nem;
    msgs_delayed = Nemesis.delayed nem;
    msgs_reordered = Nemesis.reordered nem;
    msgs_corrupted = Nemesis.corrupted nem;
    msgs_replayed = Nemesis.replayed nem;
    msgs_forged = Nemesis.forged nem;
    updates_rejected = Guard.updates_rejected guard;
    quarantines = Guard.quarantines_total guard;
    quarantine_drops = Guard.quarantine_drops guard;
    readmissions = Guard.readmissions guard;
    checks = !checks;
    transient_loops = !transient_loops;
    attack_probes = !attack_probes;
    attack_delivered = !attack_delivered;
    probes = List.length probed;
    baseline_delivered = !baseline_delivered;
    delivered = !delivered;
    violations = List.rev !violations;
    messages = Metrics.messages m;
    bytes = Metrics.bytes m;
    computations = Metrics.computations m;
    transit_computations =
      List.fold_left (fun acc ad -> acc + Metrics.computations_of m ad) 0 (Graph.transit_ids g);
    msgs_lost = Metrics.msgs_lost m;
    table_total = R.table_entries r;
    table_max = R.max_table_entries r;
    msg_max = List.fold_left (fun acc ad -> Stdlib.max acc (Metrics.messages_of m ad)) 0 (List.init n Fun.id);
    msg_mean = Stats.mean per_ad_msgs;
    msg_p90 = Stats.percentile per_ad_msgs 90.0;
    tbl_p90 = Stats.percentile per_ad_tbls 90.0;
  }

(* No wall-clock anywhere: identical (seed, plan) must render
   byte-identically. *)
let report_json t =
  J.Obj
    [
      ("protocol", J.String t.protocol);
      ("scenario", J.String t.scenario);
      ("seed", J.Int t.seed);
      ("plan", J.String t.plan);
      ("guard", J.String t.guard);
      ("attackers", J.List (List.map (fun ad -> J.Int ad) t.attackers));
      ("converged", J.Bool t.converged);
      ("stop_reason", J.String t.stop_reason);
      ("sim_time", J.Float t.sim_time);
      ("events", J.Int t.events);
      ("reconvergence_time", J.Float t.reconvergence_time);
      ( "fault_log",
        J.List
          (List.map
             (fun (ts, what) -> J.Obj [ ("t", J.Float ts); ("fault", J.String what) ])
             t.fault_log) );
      ("msgs_dropped", J.Int t.msgs_dropped);
      ("msgs_duplicated", J.Int t.msgs_duplicated);
      ("msgs_delayed", J.Int t.msgs_delayed);
      ("msgs_reordered", J.Int t.msgs_reordered);
      ("msgs_corrupted", J.Int t.msgs_corrupted);
      ("msgs_replayed", J.Int t.msgs_replayed);
      ("msgs_forged", J.Int t.msgs_forged);
      ("updates_rejected", J.Int t.updates_rejected);
      ("quarantines", J.Int t.quarantines);
      ("quarantine_drops", J.Int t.quarantine_drops);
      ("readmissions", J.Int t.readmissions);
      ("msgs_lost", J.Int t.msgs_lost);
      ("checks", J.Int t.checks);
      ("transient_loops", J.Int t.transient_loops);
      ("attack_probes", J.Int t.attack_probes);
      ("attack_delivered", J.Int t.attack_delivered);
      ("probes", J.Int t.probes);
      ("baseline_delivered", J.Int t.baseline_delivered);
      ("delivered", J.Int t.delivered);
      ("loop_violations", J.Int (loop_violations t));
      ("blackhole_violations", J.Int (blackhole_violations t));
      ("containment_violations", J.Int (containment_violations t));
      ("availability_violations", J.Int (availability_violations t));
      ( "violations",
        J.List
          (List.map
             (fun v ->
               J.Obj
                 ([ ("kind", J.String v.kind); ("t", J.Float v.time) ]
                 @ (match v.flow with
                   | Some (src, dst) -> [ ("src", J.Int src); ("dst", J.Int dst) ]
                   | None -> [])
                 @ [ ("detail", J.String v.detail) ]))
             t.violations) );
      ("messages", J.Int t.messages);
      ("bytes", J.Int t.bytes);
      ("computations", J.Int t.computations);
      ("transit_computations", J.Int t.transit_computations);
      ("table_total", J.Int t.table_total);
      ("table_max", J.Int t.table_max);
      ("msg_max", J.Int t.msg_max);
      ("msg_mean", J.Float t.msg_mean);
      ("msg_p90", J.Float t.msg_p90);
      ("tbl_p90", J.Float t.tbl_p90);
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>chaos %s on %s (seed %d)@," t.protocol t.scenario t.seed;
  Format.fprintf ppf "plan: %s@," (if t.plan = "" then "(none)" else t.plan);
  Format.fprintf ppf "guard: %s@," t.guard;
  if t.attackers <> [] then
    Format.fprintf ppf "byzantine ad(s): %s@,"
      (String.concat ", " (List.map string_of_int t.attackers));
  List.iter (fun (ts, what) -> Format.fprintf ppf "  t=%6.2f  %s@," ts what) t.fault_log;
  Format.fprintf ppf
    "message faults: %d dropped, %d duplicated, %d delayed, %d reordered; %d lost in flight@,"
    t.msgs_dropped t.msgs_duplicated t.msgs_delayed t.msgs_reordered t.msgs_lost;
  if t.attackers <> [] then
    Format.fprintf ppf
      "byzantine faults: %d corrupted, %d replayed, %d forged@,"
      t.msgs_corrupted t.msgs_replayed t.msgs_forged;
  if t.guard <> "off" then
    Format.fprintf ppf
      "guard: %d updates rejected, %d quarantines (%d drops, %d readmissions)@,"
      t.updates_rejected t.quarantines t.quarantine_drops t.readmissions;
  Format.fprintf ppf "%s at t=%.2f (%d events); reconvergence %.2f after last fault@,"
    (if t.converged then "converged" else "DID NOT CONVERGE")
    t.sim_time t.events t.reconvergence_time;
  Format.fprintf ppf "checkpoints: %d, transient loops observed: %d@," t.checks
    t.transient_loops;
  if t.attackers <> [] then
    Format.fprintf ppf "availability under attack: %d/%d honest probes delivered mid-incident@,"
      t.attack_delivered t.attack_probes;
  Format.fprintf ppf "probes: %d/%d delivered (baseline %d/%d)@," t.delivered t.probes
    t.baseline_delivered t.probes;
  (match t.violations with
  | [] ->
    if t.attackers = [] then
      Format.fprintf ppf "invariants: OK (no loop, no blackhole)"
    else
      Format.fprintf ppf
        "invariants: OK (no loop, no availability loss, no containment breach)"
  | vs ->
    Format.fprintf ppf "INVARIANT VIOLATIONS (%d):" (List.length vs);
    List.iter
      (fun v ->
        Format.fprintf ppf "@,  [%s]%s %s" v.kind
          (match v.flow with
          | Some (s, d) -> Printf.sprintf " flow %d->%d" s d
          | None -> "")
          v.detail)
      vs);
  Format.fprintf ppf "@]"
