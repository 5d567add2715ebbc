module Graph = Pr_topology.Graph
module Path = Pr_topology.Path
module Flow = Pr_policy.Flow
module Config = Pr_policy.Config
module Transit_policy = Pr_policy.Transit_policy
module Validate = Pr_policy.Validate
module Stats = Pr_util.Stats

type pair_change = {
  src : Pr_topology.Ad.id;
  dst : Pr_topology.Ad.id;
  before : Path.t option;
  after : Path.t option;
}

type report = {
  owner : Pr_topology.Ad.id;
  pairs_total : int;
  lost : pair_change list;
  gained : pair_change list;
  degraded : pair_change list;
  improved : pair_change list;
  transit_load_before : int;
  transit_load_after : int;
  mean_cost_before : float;
  mean_cost_after : float;
}

(* A configuration equal to [config] except for [owner]'s transit
   policy. *)
let with_policy (config : Config.t) (proposed : Transit_policy.t) =
  let n = Config.n config in
  let transit =
    Array.init n (fun ad ->
        if ad = proposed.Transit_policy.owner then proposed else Config.transit config ad)
  in
  let source = Array.init n (fun ad ->
      if Config.has_source_policy config ad then Some (Config.source config ad) else None)
  in
  Config.make ~transit ~source ()

let assess (scenario : Scenario.t) ~proposed ?(qos = Pr_policy.Qos.Default)
    ?(uci = Pr_policy.Uci.Research) ?(max_hops = Experiment.oracle_max_hops) () =
  let g = scenario.Scenario.graph in
  let owner = proposed.Transit_policy.owner in
  let config_before = scenario.Scenario.config in
  let config_after = with_policy config_before proposed in
  let hosts = Graph.host_ids g in
  let lost = ref [] and gained = ref [] in
  let degraded = ref [] and improved = ref [] in
  let load_before = ref 0 and load_after = ref 0 in
  let costs_before = ref [] and costs_after = ref [] in
  let flows =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if src <> dst then Some (Flow.make ~src ~dst ~qos ~uci ()) else None)
          hosts)
      hosts
  in
  (* Every [before] answer, then every [after] one: the oracle's policy
     store ({!Pr_policy.Policy_store.of_config}) remembers one
     configuration, so alternating the two would recompile on every
     call. *)
  let best config = List.map (fun flow -> Validate.best_legal g config flow ~max_hops) flows in
  let befores = best config_before in
  let afters = best config_after in
  List.iter2
    (fun (flow : Flow.t) (before, after) ->
      let change = { src = flow.Flow.src; dst = flow.Flow.dst; before; after } in
      let transits path =
        match path with
        | Some p -> List.mem owner (Path.transit_ads p)
        | None -> false
      in
      if transits before then incr load_before;
      if transits after then incr load_after;
      match (before, after) with
      | Some _, None -> lost := change :: !lost
      | None, Some _ -> gained := change :: !gained
      | Some pb, Some pa -> (
        match (Path.cost g pb, Path.cost g pa) with
        | Some cb, Some ca ->
          costs_before := float_of_int cb :: !costs_before;
          costs_after := float_of_int ca :: !costs_after;
          if ca > cb then degraded := change :: !degraded
          else if ca < cb then improved := change :: !improved
        | _ -> ())
      | None, None -> ())
    flows (List.combine befores afters);
  {
    owner;
    pairs_total = List.length flows;
    lost = List.rev !lost;
    gained = List.rev !gained;
    degraded = List.rev !degraded;
    improved = List.rev !improved;
    transit_load_before = !load_before;
    transit_load_after = !load_after;
    mean_cost_before = Stats.mean !costs_before;
    mean_cost_after = Stats.mean !costs_after;
  }

let summary r =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "Impact of replacing AD %d's transit policy (over %d host pairs):" r.owner
    r.pairs_total;
  line "  connectivity:  %d pairs lose their only legal route, %d gain one"
    (List.length r.lost) (List.length r.gained);
  line "  route quality: %d pairs degrade, %d improve (mean legal cost %.2f -> %.2f)"
    (List.length r.degraded) (List.length r.improved) r.mean_cost_before r.mean_cost_after;
  line "  transit load:  best routes through AD %d: %d -> %d pairs" r.owner
    r.transit_load_before r.transit_load_after;
  (match r.lost with
  | [] -> ()
  | l ->
    line "  lost pairs:";
    List.iteri
      (fun i c -> if i < 10 then line "    %d -> %d" c.src c.dst)
      l;
    if List.length l > 10 then line "    ... and %d more" (List.length l - 10));
  Buffer.contents buf
