module Path = Pr_topology.Path
module Flow = Pr_policy.Flow
module Validate = Pr_policy.Validate
module Source_policy = Pr_policy.Source_policy
module Config = Pr_policy.Config
module Forwarding = Pr_proto.Forwarding
module Packet = Pr_proto.Packet
module Runner = Pr_proto.Runner
module Stats = Pr_util.Stats
module Texttable = Pr_util.Texttable

let oracle_max_hops = 12

type result = {
  protocol : string;
  scenario : string;
  converged : bool;
  convergence_time : float;
  messages : int;
  bytes : int;
  computations : int;
  transit_computations : int;
  table_total : int;
  table_max : int;
  flows : int;
  oracle_reachable : int;
  delivered : int;
  dropped : int;
  looped : int;
  prep_failed : int;
  availability_loss : int;
  transit_violations : int;
  source_violations : int;
  stretch_mean : float;
  header_bytes_mean : float;
  setup_hops_mean : float;
  cache_hits : int;
}

type outcome_tally = {
  mutable delivered : int;
  mutable dropped : int;
  mutable looped : int;
  mutable prep_failed : int;
  mutable oracle_reachable : int;
  mutable availability_loss : int;
  mutable transit_violations : int;
  mutable source_violations : int;
  mutable cache_hits : int;
  mutable stretches : float list;
  mutable headers : float list;
  mutable setups : float list;
}

let fresh_tally () =
  {
    delivered = 0;
    dropped = 0;
    looped = 0;
    prep_failed = 0;
    oracle_reachable = 0;
    availability_loss = 0;
    transit_violations = 0;
    source_violations = 0;
    cache_hits = 0;
    stretches = [];
    headers = [];
    setups = [];
  }

let classify (scenario : Scenario.t) tally flow outcome =
  let g = scenario.Scenario.graph and config = scenario.Scenario.config in
  (* [best] is a route that is both transit-legal and acceptable to the
     source's own criteria: only its absence from a protocol counts as
     availability loss. A flow whose source policy refuses every legal
     route is not "lost" — refusing it is correct behaviour (protocols
     that deliver it anyway score a source violation instead). *)
  let best = Validate.best_legal g config flow ~max_hops:oracle_max_hops in
  let reachable =
    best <> None || Validate.route_exists g config flow ~max_hops:oracle_max_hops
  in
  if reachable then tally.oracle_reachable <- tally.oracle_reachable + 1;
  let reachable = best <> None in
  let prep =
    match outcome with
    | Forwarding.Delivered { prep; _ }
    | Forwarding.Dropped { prep; _ }
    | Forwarding.Looped { prep; _ }
    | Forwarding.Prep_failed { prep; _ } -> prep
  in
  if prep.Packet.cache_hit then tally.cache_hits <- tally.cache_hits + 1
  else if prep.Packet.setup_hops > 0 then
    tally.setups <- float_of_int prep.Packet.setup_hops :: tally.setups;
  match outcome with
  | Forwarding.Delivered { path; header_bytes; _ } ->
    tally.delivered <- tally.delivered + 1;
    tally.headers <- float_of_int header_bytes :: tally.headers;
    if not (Validate.transit_legal g config flow path) then
      tally.transit_violations <- tally.transit_violations + 1;
    if not (Source_policy.permits (Config.source config flow.Flow.src) path) then
      tally.source_violations <- tally.source_violations + 1;
    (match (Path.cost g path, best) with
    | Some actual, Some best_path -> (
      match Path.cost g best_path with
      | Some best_cost when best_cost > 0 ->
        tally.stretches <-
          (float_of_int actual /. float_of_int best_cost) :: tally.stretches
      | _ -> ())
    | _ -> ())
  | Forwarding.Dropped _ ->
    tally.dropped <- tally.dropped + 1;
    if reachable then tally.availability_loss <- tally.availability_loss + 1
  | Forwarding.Looped _ ->
    tally.looped <- tally.looped + 1;
    if reachable then tally.availability_loss <- tally.availability_loss + 1
  | Forwarding.Prep_failed _ ->
    tally.prep_failed <- tally.prep_failed + 1;
    if reachable then tally.availability_loss <- tally.availability_loss + 1

let evaluate (Registry.Packed (module P)) (scenario : Scenario.t) ~flows () =
  let module R = Runner.Make (P) in
  let r = R.setup scenario.Scenario.graph scenario.Scenario.config in
  let conv = R.converge r in
  let tally = fresh_tally () in
  List.iter
    (fun flow ->
      let outcome = R.send_flow r flow in
      classify scenario tally flow outcome)
    flows;
  let c = R.totals r in
  {
    protocol = P.name;
    scenario = scenario.Scenario.label;
    converged = conv.Runner.converged;
    convergence_time = conv.Runner.sim_time;
    messages = c.Runner.messages;
    bytes = c.Runner.bytes;
    computations = c.Runner.computations;
    transit_computations = c.Runner.transit_computations;
    table_total = c.Runner.table_total;
    table_max = c.Runner.table_max;
    flows = List.length flows;
    oracle_reachable = tally.oracle_reachable;
    delivered = tally.delivered;
    dropped = tally.dropped;
    looped = tally.looped;
    prep_failed = tally.prep_failed;
    availability_loss = tally.availability_loss;
    transit_violations = tally.transit_violations;
    source_violations = tally.source_violations;
    stretch_mean = Stats.mean tally.stretches;
    header_bytes_mean = Stats.mean tally.headers;
    setup_hops_mean = Stats.mean tally.setups;
    cache_hits = tally.cache_hits;
  }

type convergence_probe = {
  initial_time : float;
  initial_messages : int;
  initial_bytes : int;
  after_failure_time : float;
  after_failure_messages : int;
  after_failure_converged : bool;
}

let convergence_after_failure (Registry.Packed (module P)) (scenario : Scenario.t) ~link =
  let module R = Runner.Make (P) in
  let r = R.setup scenario.Scenario.graph scenario.Scenario.config in
  let initial = R.converge r in
  R.fail_link r link;
  let after = R.converge ~max_events:2_000_000 r in
  {
    initial_time = initial.Runner.sim_time;
    initial_messages = initial.Runner.messages;
    initial_bytes = initial.Runner.bytes;
    after_failure_time = after.Runner.sim_time -. initial.Runner.sim_time;
    after_failure_messages = after.Runner.messages;
    after_failure_converged = after.Runner.converged;
  }

let availability (Registry.Packed (module P)) (scenario : Scenario.t) ~flows ~delivered =
  let module R = Runner.Make (P) in
  let r = R.setup scenario.Scenario.graph scenario.Scenario.config in
  ignore (R.converge r);
  List.filter
    (fun flow -> Forwarding.delivered (R.send_flow r flow) = delivered)
    flows

let result_columns =
  [
    ("protocol", Texttable.Left);
    ("conv t", Texttable.Right);
    ("msgs", Texttable.Right);
    ("kbytes", Texttable.Right);
    ("comp", Texttable.Right);
    ("tbl max", Texttable.Right);
    ("deliv", Texttable.Right);
    ("avail loss", Texttable.Right);
    ("viol", Texttable.Right);
    ("src viol", Texttable.Right);
    ("stretch", Texttable.Right);
  ]

let result_row r =
  [
    r.protocol;
    Texttable.cell_float ~decimals:1 r.convergence_time;
    Texttable.cell_int r.messages;
    Texttable.cell_float ~decimals:1 (float_of_int r.bytes /. 1024.);
    Texttable.cell_int r.computations;
    Texttable.cell_int r.table_max;
    Printf.sprintf "%d/%d" r.delivered r.flows;
    Printf.sprintf "%d/%d" r.availability_loss r.oracle_reachable;
    Texttable.cell_int r.transit_violations;
    Texttable.cell_int r.source_violations;
    Texttable.cell_float ~decimals:2 r.stretch_mean;
  ]
