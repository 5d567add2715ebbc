(* Route-server daemon (see daemon.mli). *)

module Graph = Pr_topology.Graph
module Flow = Pr_policy.Flow
module Policy_term = Pr_policy.Policy_term
module Transit_policy = Pr_policy.Transit_policy
module Compiled = Pr_policy.Compiled
module Policy_store = Pr_policy.Policy_store
module Gen = Pr_policy.Gen
module Rng = Pr_util.Rng
module Stats = Pr_util.Stats
module Json = Pr_util.Json
module Engine = Pr_sim.Engine
module Network = Pr_sim.Network
module Metrics = Pr_sim.Metrics
module Plan = Pr_faults.Plan
module Nemesis = Pr_faults.Nemesis
module Guard = Pr_guard.Guard
module Scenario = Pr_core.Scenario
module Hist = Pr_telemetry.Hist
module Reg = Pr_telemetry.Registry
module Trace = Pr_obs.Trace
module Alloc = Pr_telemetry.Alloc
module Timing = Pr_telemetry.Timing
module Gate = Pr_telemetry.Gate

type config = {
  seed : int;
  target_ads : int;
  duration : float;
  batch : int;
  interval : float;
  plan : Plan.t;
  plan_name : string;
  flip_every : float;
  route_capacity : int;
  handle_capacity : int;
  check_every : int;
  policy : Gen.params;
  record_exact : bool;
}

(* The restrictive fine-grained policy setting the PADMIT/SYNTH
   benchmarks use: admission work dominates, which is the regime a
   route server exists for. *)
let restrictive = { Gen.default with Gen.restrictiveness = 0.8; granularity = Gen.Fine }

let default_config =
  {
    seed = 11;
    target_ads = 56;
    duration = 40.0;
    batch = 64;
    interval = 0.5;
    plan = Plan.default;
    plan_name = "default";
    flip_every = 4.0;
    route_capacity = 4096;
    handle_capacity = 1024;
    check_every = 16;
    policy = restrictive;
    record_exact = false;
  }

type report = {
  config : config;
  ads : int;
  links : int;
  queries : int;
  data_packets : int;
  answered : int;
  no_routes : int;
  qps : float;
  p50_ns : float;
  p99_ns : float;
  admit_ns : float;
  spec_admit_ns : float;
  admit_probes : int;
  admit_alloc_w : float;
  handle_hit_rate : float;
  stats : Serve.stats;
  rebuild_p50_ns : float;
  rebuild_max_ns : float;
  build_ns : float;
  diagram_nodes : int;
  diagram_preds : int;
  store_version : int;
  flips : int;
  faults : int;
  agreement_checks : int;
  agreement_failures : int;
  stale_batches : int;
  queries_shed : int;
  max_stale_age : float;
  link_quarantines : int;
  link_readmissions : int;
  self_check_error : string option;
  latency : Hist.t;
  rebuild : Hist.t;
  exact_latencies : float list;
}

(* One admission probe: an interior crossing some answered route made. *)
type probe = { p_ad : int; p_flow : Flow.t; p_prev : int; p_next : int }

let run cfg =
  (* A post-mortem covers one session: events of an earlier session in
     this process restarted simulated time and would read as going
     backwards. *)
  Trace.clear Trace.flight;
  let scenario =
    Scenario.for_size ~policy:cfg.policy ~target_ads:cfg.target_ads ~seed:cfg.seed ()
  in
  let graph = scenario.Scenario.graph in
  let n = Graph.n graph in
  (* A private mutable store: policy flips must not leak into the
     shared of_config memo other subsystems read. *)
  let store = Policy_store.create scenario.Scenario.config in
  let engine = Engine.create () in
  let metrics = Metrics.create ~n in
  let net : unit Network.t = Network.create engine graph metrics in
  let nemesis = Nemesis.install net ~rng:(Rng.derive cfg.seed "serve-faults") cfg.plan in
  (* Update guard over the link-event stream: flap damping quarantines
     a chattering adjacency, and any active quarantine switches the
     serving loop to serve-stale mode — pin the last healthy database
     snapshot and, past the deadline, shed the queries that would need
     a fresh synthesis while still answering from the route cache. *)
  let guard = Guard.create ~engine ~n ~on_readmit:(fun ~at:_ ~nbr:_ -> ()) () in
  Network.set_link_handler net (fun ~at ~link ~up ->
      let l = Graph.link graph link in
      Guard.observe_link guard ~at ~nbr:(Pr_topology.Link.other_end l at) ~up);
  let t0_build = Timing.now_ns () in
  let serve =
    Serve.create ~route_capacity:(Some cfg.route_capacity)
      ~handle_capacity:(Some cfg.handle_capacity)
      ~link_up:(Network.link_is_up net) ~node_up:(Network.node_is_up net) graph store
  in
  let build_ns = Timing.now_ns () -. t0_build in
  let workload = Workload.create ~rng:(Rng.derive cfg.seed "serve-workload") graph in
  (* Ring of the most recently issued handles; data packets present a
     recency rank into it. *)
  let ring_cap = 64 in
  let ring = Array.make ring_cap (-1) in
  let ring_head = ref 0 and ring_count = ref 0 in
  let ring_push h =
    ring.(!ring_head mod ring_cap) <- h;
    incr ring_head;
    if !ring_count < ring_cap then incr ring_count
  in
  let ring_nth rank =
    let k = rank mod !ring_count in
    ring.((!ring_head - 1 - k + (2 * ring_cap)) mod ring_cap)
  in
  (* Policy flips: toggle a random transit AD between its configured
     policy and a flipped one (fully closed or fully open), restoring
     on the second visit. *)
  let flip_rng = Rng.derive cfg.seed "serve-flips" in
  let transit = Array.of_list (Graph.transit_ids graph) in
  let originals : (int, Transit_policy.t) Hashtbl.t = Hashtbl.create 16 in
  let flips = ref 0 in
  let flip () =
    if Array.length transit > 0 then begin
      let ad = transit.(Rng.int flip_rng (Array.length transit)) in
      incr flips;
      match Hashtbl.find_opt originals ad with
      | Some original ->
          Hashtbl.remove originals ad;
          Policy_store.set_transit store ad original
      | None ->
          Hashtbl.add originals ad (Policy_store.transit store ad);
          let flipped =
            if Rng.bool flip_rng then Transit_policy.no_transit ad
            else Transit_policy.open_transit ad
          in
          Policy_store.set_transit store ad flipped
    end
  in
  let stale_gauge = Reg.gauge Reg.default "serve.stale_snapshot_age" in
  Reg.set stale_gauge 0.0;
  let stale_batches = ref 0 and queries_shed = ref 0 in
  let max_stale_age = ref 0.0 in
  (* (snapshot, pin time) of the last batch served from a healthy
     (quarantine-free) topology. *)
  let pinned = ref None in
  let shed_deadline = 4.0 *. cfg.interval in
  let lat_hist = Hist.create () in
  let exact_latencies = ref [] in
  let total_query_ns = ref 0.0 in
  let rebuild_hist = Hist.create () in
  let answered = ref 0 in
  let agreement_checks = ref 0 in
  let agreement_failures = ref 0 in
  let probes = Array.make 256 None in
  let probe_head = ref 0 in
  let record_probe p =
    probes.(!probe_head mod Array.length probes) <- Some p;
    incr probe_head
  in
  let check_path snap flow path =
    (* Valid only when the snapshot is the store's current version —
       guaranteed on the batch cadence (flips land between batches),
       guarded anyway. *)
    if Pdd.snapshot_version snap = Policy_store.version store then begin
      let rec scan = function
        | prev :: ad :: next :: rest ->
            let ctx = { Policy_term.flow; prev = Some prev; next = Some next } in
            let d = Pdd.admit snap ~ad flow ~prev ~next in
            let c = Compiled.allows (Policy_store.compiled store ad) ctx in
            let i = Transit_policy.allows (Policy_store.transit store ad) ctx in
            incr agreement_checks;
            if not (d = c && c = i && d) then begin
              incr agreement_failures;
              Trace.note (Engine.trace engine) ~ts:(Engine.now engine) ~tid:ad
                ~detail:
                  (Printf.sprintf "flow %d->%d at AD %d: pdd=%b compiled=%b interpreted=%b"
                     flow.Flow.src flow.Flow.dst ad d c i)
                "serve.agreement_failure"
            end;
            record_probe { p_ad = ad; p_flow = flow; p_prev = prev; p_next = next };
            scan (ad :: next :: rest)
        | _ -> ()
      in
      scan path
    end
  in
  let batch () =
    let now = Engine.now engine in
    (* Serve-stale: while the guard holds any adjacency in quarantine,
       keep answering from the last healthy snapshot instead of
       refreshing into a database the attacker is churning. *)
    let stale_age =
      if Guard.active_quarantines guard > 0 then
        match !pinned with Some (_, since) -> Some (now -. since) | None -> None
      else None
    in
    let snap =
      match (stale_age, !pinned) with
      | Some age, Some (snap, _) ->
          incr stale_batches;
          if age > !max_stale_age then max_stale_age := age;
          Reg.set stale_gauge age;
          snap
      | _ ->
          let t0 = Timing.now_ns () in
          let changed = Serve.refresh serve ~now in
          if changed > 0 then Hist.record rebuild_hist (Timing.now_ns () -. t0);
          let snap = Serve.snapshot serve in
          pinned := Some (snap, now);
          snap
    in
    let shedding =
      match stale_age with Some age -> age > shed_deadline | None -> false
    in
    for _op = 1 to cfg.batch do
      match Workload.next workload ~now with
      | Workload.Data rank ->
          if !ring_count > 0 then ignore (Serve.data serve ~now ~handle:(ring_nth rank))
      | Workload.Query flow ->
          (* Past the degradation deadline only cached answers stay on
             the menu: a synthesis on the stale database is work the
             server sheds to keep the cheap queries fast. *)
          if shedding && not (Serve.cache_ready serve ~snap flow) then incr queries_shed
          else begin
            let t0 = Timing.now_ns () in
            let answer = Serve.query ~snap serve ~now flow in
            let dt = Timing.now_ns () -. t0 in
            Hist.record lat_hist dt;
            if cfg.record_exact then exact_latencies := dt :: !exact_latencies;
            total_query_ns := !total_query_ns +. dt;
            match answer with
            | Serve.Route { path; handle; _ } ->
                incr answered;
                ring_push handle;
                let s = Serve.stats serve in
                if cfg.check_every > 0 && s.Serve.queries mod cfg.check_every = 0 then
                  check_path snap flow path
            | Serve.No_route _ -> ()
          end
    done
  in
  (* Batches before flips so that, at coinciding times, a batch always
     reads the version the previous flip published (FIFO tie-break). *)
  let t = ref 0.0 in
  while !t < cfg.duration do
    Engine.schedule_at engine ~time:!t batch;
    t := !t +. cfg.interval
  done;
  if cfg.flip_every > 0.0 then begin
    let t = ref cfg.flip_every in
    while !t < cfg.duration do
      Engine.schedule_at engine ~time:!t flip;
      t := !t +. cfg.flip_every
    done
  end;
  ignore (Engine.run engine);
  (* Final catch-up so the post-run audit and microbenchmark see the
     last flips. *)
  ignore (Serve.refresh serve ~now:cfg.duration);
  (* Admission microbenchmark over the crossings real answers made:
     one full diagram walk vs the specialized-bitset baseline. *)
  let probe_list = Array.to_list probes |> List.filter_map Fun.id in
  let probe_arr = Array.of_list probe_list in
  let admit_ns, spec_admit_ns, admit_alloc_w =
    if Array.length probe_arr = 0 then (0.0, 0.0, 0.0)
    else begin
      let snap = Serve.snapshot serve in
      let specs =
        Array.map
          (fun p -> Compiled.specialize (Policy_store.compiled store p.p_ad) p.p_flow)
          probe_arr
      in
      (* The two paths must agree probe by probe (same store version). *)
      Array.iteri
        (fun i p ->
          incr agreement_checks;
          if
            Pdd.admit snap ~ad:p.p_ad p.p_flow ~prev:p.p_prev ~next:p.p_next
            <> Compiled.spec_allows specs.(i) ~prev:p.p_prev ~next:p.p_next
          then begin
            incr agreement_failures;
            Trace.note (Engine.trace engine) ~ts:cfg.duration ~tid:p.p_ad
              ~detail:"microbench probe: diagram vs specialized bitset disagree"
              "serve.agreement_failure"
          end)
        probe_arr;
      let sink = ref 0 in
      let ops = Array.length probe_arr in
      let diagram () =
        for i = 0 to ops - 1 do
          let p = Array.unsafe_get probe_arr i in
          if Pdd.admit snap ~ad:p.p_ad p.p_flow ~prev:p.p_prev ~next:p.p_next then
            incr sink
        done
      in
      let spec () =
        for i = 0 to ops - 1 do
          let p = Array.unsafe_get probe_arr i in
          if Compiled.spec_allows (Array.unsafe_get specs i) ~prev:p.p_prev ~next:p.p_next
          then incr sink
        done
      in
      let d = Timing.ns_per ~ops diagram in
      let s = Timing.ns_per ~ops spec in
      (* Steady-state allocation of the diagram walk (shared GC
         accounting with bench/main.ml's synth section): the admit hot
         path is expected to be allocation-free. *)
      let alloc_w = Alloc.words_per ~ops diagram in
      ignore !sink;
      (d, s, alloc_w)
    end
  in
  let stats = Serve.stats serve in
  let self_check_error =
    match Serve.self_check serve with
    | Error e -> Some e
    | Ok () -> (
        match Pdd.check (Serve.pdd serve) with Error e -> Some e | Ok () -> None)
  in
  (match self_check_error with
  | Some e ->
      Trace.note (Engine.trace engine) ~ts:cfg.duration ~tid:0 ~detail:e
        "serve.self_check_failed"
  | None -> ());
  (* Publish the session's counters and histograms into the
     process-global registry so `prx serve --metrics` / campaign
     snapshots see them. *)
  List.iter
    (fun (name, v) -> Reg.add (Reg.counter Reg.default ("serve." ^ name)) v)
    [
      ("queries", stats.Serve.queries);
      ("route_hits", stats.Serve.route_hits);
      ("route_misses", stats.Serve.route_misses);
      ("handle_hits", stats.Serve.handle_hits);
      ("handle_misses", stats.Serve.handle_misses);
      ("no_routes", stats.Serve.no_routes);
      ("handles_issued", stats.Serve.handles_issued);
      ("handle_evictions", stats.Serve.handle_evictions);
      ("search_states", stats.Serve.search_states);
      ("bound_builds", stats.Serve.bound_builds);
      ("bound_evictions", stats.Serve.bound_evictions);
      ("sheds", !queries_shed);
    ];
  Hist.merge ~into:(Reg.histogram Reg.default "serve.query_latency_ns") lat_hist;
  Hist.merge ~into:(Reg.histogram Reg.default "serve.rebuild_batch_ns") rebuild_hist;
  Alloc.sample ();
  let hc = Pdd.db_store (Serve.pdd serve) in
  {
    config = cfg;
    ads = n;
    links = Graph.num_links graph;
    queries = stats.Serve.queries;
    data_packets = stats.Serve.data_packets;
    answered = !answered;
    no_routes = stats.Serve.no_routes;
    qps =
      (if !total_query_ns > 0.0 then
         float_of_int stats.Serve.queries /. (!total_query_ns /. 1e9)
       else 0.0);
    p50_ns = Hist.quantile lat_hist 50.0;
    p99_ns = Hist.quantile lat_hist 99.0;
    admit_ns;
    spec_admit_ns;
    admit_probes = Array.length probe_arr;
    admit_alloc_w;
    handle_hit_rate =
      (let total = stats.Serve.handle_hits + stats.Serve.handle_misses in
       if total = 0 then 0.0 else float_of_int stats.Serve.handle_hits /. float_of_int total);
    stats;
    rebuild_p50_ns = Hist.quantile rebuild_hist 50.0;
    rebuild_max_ns = Hist.max_value rebuild_hist;
    build_ns;
    diagram_nodes = Pdd.store_nodes hc;
    diagram_preds = Pdd.store_preds hc;
    store_version = Policy_store.version store;
    flips = !flips;
    faults = List.length (Nemesis.fault_log nemesis);
    agreement_checks = !agreement_checks;
    agreement_failures = !agreement_failures;
    stale_batches = !stale_batches;
    queries_shed = !queries_shed;
    max_stale_age = !max_stale_age;
    link_quarantines = Guard.quarantines_total guard;
    link_readmissions = Guard.readmissions guard;
    self_check_error;
    latency = lat_hist;
    rebuild = rebuild_hist;
    exact_latencies = List.rev !exact_latencies;
  }

let healthy r =
  r.agreement_failures = 0 && r.self_check_error = None && r.answered > 0

let kernel =
  "hash-consed policy decision diagrams + LRU handle table under fault-plan and \
   set_transit churn"

(* The session config rides along in every row, so `prx bench diff`
   can re-run a baseline row exactly — including its own fault plan,
   so one document can mix benign and attack rows. Every counter is a
   product of (seed, plan, config), so it is exact; the wall-clock and
   allocation figures are banded. The slowest single rebuild is left
   out: one preemption during a microsecond-scale sample moves it by
   orders of magnitude, so it measures the scheduler, not the code. *)
let row r =
  let s = r.stats in
  let c = r.config in
  {
    Gate.layer = "serve";
    kernel;
    config =
      [
        ("seed", Json.Int c.seed);
        ("target_ads", Json.Int c.target_ads);
        ("plan", Json.String c.plan_name);
        ("duration", Json.Float c.duration);
        ("batch", Json.Int c.batch);
        ("interval", Json.Float c.interval);
        ("flip_every", Json.Float c.flip_every);
        ("route_capacity", Json.Int c.route_capacity);
        ("handle_capacity", Json.Int c.handle_capacity);
        ("check_every", Json.Int c.check_every);
        ("restrictiveness", Json.Float c.policy.Gen.restrictiveness);
        ("granularity", Json.String (Gen.granularity_to_string c.policy.Gen.granularity));
        ("source_policy_prob", Json.Float c.policy.Gen.source_policy_prob);
      ];
    exact =
      [
        ("ads", Json.Int r.ads);
        ("links", Json.Int r.links);
        ("queries", Json.Int r.queries);
        ("data_packets", Json.Int r.data_packets);
        ("answered", Json.Int r.answered);
        ("no_routes", Json.Int r.no_routes);
        ("admit_probes", Json.Int r.admit_probes);
        ("handle_hit_rate", Json.Float r.handle_hit_rate);
        ("route_hits", Json.Int s.Serve.route_hits);
        ("route_misses", Json.Int s.Serve.route_misses);
        ("route_evictions", Json.Int s.Serve.route_evictions);
        ("handle_hits", Json.Int s.Serve.handle_hits);
        ("handle_misses", Json.Int s.Serve.handle_misses);
        ("handle_evictions", Json.Int s.Serve.handle_evictions);
        ("handles_issued", Json.Int s.Serve.handles_issued);
        ("rebuilds", Json.Int s.Serve.rebuilds);
        ("rebuilt_ads", Json.Int s.Serve.rebuilt_ads);
        ("diagram_nodes", Json.Int r.diagram_nodes);
        ("diagram_preds", Json.Int r.diagram_preds);
        ("store_version", Json.Int r.store_version);
        ("flips", Json.Int r.flips);
        ("faults", Json.Int r.faults);
        ("agreement_checks", Json.Int r.agreement_checks);
        ("agreement_failures", Json.Int r.agreement_failures);
        ("stale_batches", Json.Int r.stale_batches);
        ("queries_shed", Json.Int r.queries_shed);
        ("max_stale_age", Json.Float r.max_stale_age);
        ("link_quarantines", Json.Int r.link_quarantines);
        ("link_readmissions", Json.Int r.link_readmissions);
        ("search_states", Json.Int s.Serve.search_states);
      ];
    band =
      [
        ("qps", Json.Float r.qps);
        ("p50_ns", Json.Float r.p50_ns);
        ("p99_ns", Json.Float r.p99_ns);
        ("admit_ns", Json.Float r.admit_ns);
        ("spec_admit_ns", Json.Float r.spec_admit_ns);
        ("admit_alloc_w", Json.Float r.admit_alloc_w);
        ("rebuild_p50_ns", Json.Float r.rebuild_p50_ns);
        ("build_ns", Json.Float r.build_ns);
      ];
    cores = 1;
  }

let check_config c =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let fraction x = x >= 0.0 && x <= 1.0 in
  let p = c.policy in
  if c.route_capacity < 1 then bad "route_capacity must be >= 1 (got %d)" c.route_capacity
  else if c.handle_capacity < 1 then
    bad "handle_capacity must be >= 1 (got %d)" c.handle_capacity
  else if c.batch < 1 then bad "batch must be >= 1 (got %d)" c.batch
  else if c.check_every < 0 then bad "check_every must be >= 0 (got %d)" c.check_every
  else if not (Float.is_finite c.interval && c.interval > 0.0) then
    bad "interval must be a finite number > 0 (got %g)" c.interval
  else if not (Float.is_finite c.duration && c.duration >= 0.0) then
    bad "duration must be a finite number >= 0 (got %g)" c.duration
  else if not (Float.is_finite c.flip_every && c.flip_every >= 0.0) then
    bad "flip_every must be a finite number >= 0 (got %g)" c.flip_every
  else if not (fraction p.Gen.restrictiveness) then
    bad "restrictiveness must be in [0, 1] (got %g)" p.Gen.restrictiveness
  else if not (fraction p.Gen.source_policy_prob) then
    bad "source_policy_prob must be in [0, 1] (got %g)" p.Gen.source_policy_prob
  else Ok c

(* Rebuild a session config from a baseline row. Fields the row's
   config leaves out fall back to the `prx serve` CLI defaults
   (Gen.default policy: restrictiveness 0.3, source-specific
   granularity); a field present with a bad value is an error. *)
let config_of_row (row : Gate.row) =
  let ( let* ) = Result.bind in
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let field name = List.assoc_opt name row.Gate.config in
  let* plan, plan_name =
    match field "plan" with
    | None -> Ok (default_config.plan, default_config.plan_name)
    | Some (Json.String s) -> (
        match Plan.of_string s with
        | Ok p -> Ok (p, s)
        | Error e -> bad "bad plan %S: %s" s e)
    | Some _ -> bad "plan must be a string"
  in
  let num name d =
    match field name with
    | None -> Ok d
    | Some (Json.Int v) -> Ok (float_of_int v)
    | Some (Json.Float v) -> Ok v
    | Some _ -> bad "%s must be a number" name
  in
  let int_f name d =
    let* v = num name (float_of_int d) in
    if Float.is_integer v && Float.abs v < 1e15 then Ok (int_of_float v)
    else bad "%s must be an integer (got %g)" name v
  in
  let* granularity =
    match field "granularity" with
    | None -> Ok Gen.default.Gen.granularity
    | Some (Json.String g) -> (
        match
          List.find_opt (fun k -> Gen.granularity_to_string k = g) Gen.all_granularities
        with
        | Some k -> Ok k
        | None -> bad "unknown granularity %S" g)
    | Some _ -> bad "granularity must be a string"
  in
  let* seed = int_f "seed" default_config.seed in
  let* target_ads = int_f "target_ads" 0 in
  let* () = if target_ads >= 1 then Ok () else bad "target_ads must be >= 1 (got %d)" target_ads in
  let* duration = num "duration" default_config.duration in
  let* batch = int_f "batch" default_config.batch in
  let* interval = num "interval" default_config.interval in
  let* flip_every = num "flip_every" default_config.flip_every in
  let* route_capacity = int_f "route_capacity" default_config.route_capacity in
  let* handle_capacity = int_f "handle_capacity" default_config.handle_capacity in
  let* check_every = int_f "check_every" default_config.check_every in
  let* restrictiveness = num "restrictiveness" Gen.default.Gen.restrictiveness in
  let* source_policy_prob = num "source_policy_prob" Gen.default.Gen.source_policy_prob in
  check_config
    {
      seed;
      target_ads;
      duration;
      batch;
      interval;
      plan;
      plan_name;
      flip_every;
      route_capacity;
      handle_capacity;
      check_every;
      policy = { Gen.restrictiveness; granularity; source_policy_prob };
      record_exact = false;
    }

let document_json reports =
  Gate.document_json ~benchmark:"route_server_serving" (List.map row reports)

let pp_stale ppf r =
  if r.stale_batches > 0 then
    Format.fprintf ppf
      "@,serve-stale: %d batches (max snapshot age %.1f), %d queries shed, %d \
       quarantines (%d readmitted)"
      r.stale_batches r.max_stale_age r.queries_shed r.link_quarantines
      r.link_readmissions

let pp_self_check ppf r =
  match r.self_check_error with
  | None -> ()
  | Some e -> Format.fprintf ppf "@,SELF-CHECK FAILED: %s" e

let pp_report ppf r =
  let s = r.stats in
  Format.fprintf ppf
    "@[<v>serve: %d ADs (%d links), plan=%s, %d flips, %d faults@,\
     queries %d (answered %d, no-route %d), data %d@,\
     qps %.0f  p50 %.0f ns  p99 %.0f ns@,\
     admit %.1f ns/check (specialized bitsets: %.1f) over %d probes@,\
     route cache %d/%d hit/miss (%d evicted)  handles %.1f%% hit (%d evicted)@,\
     diagrams: %d nodes, %d preds; rebuilds %d (%d ADs), p50 %.0f ns, max %.0f ns@,\
     agreement %d/%d checks failed%a%a@]"
    r.ads r.links r.config.plan_name r.flips r.faults r.queries r.answered r.no_routes
    r.data_packets r.qps r.p50_ns r.p99_ns r.admit_ns r.spec_admit_ns r.admit_probes
    s.Serve.route_hits s.Serve.route_misses s.Serve.route_evictions
    (100.0 *. r.handle_hit_rate)
    s.Serve.handle_evictions r.diagram_nodes r.diagram_preds s.Serve.rebuilds
    s.Serve.rebuilt_ads r.rebuild_p50_ns r.rebuild_max_ns r.agreement_failures
    r.agreement_checks pp_stale r pp_self_check r
