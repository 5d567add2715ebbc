module Graph = Pr_topology.Graph
module Network = Pr_sim.Network
module Flow = Pr_policy.Flow
module Config = Pr_policy.Config
module Transit_policy = Pr_policy.Transit_policy
module Packet = Pr_proto.Packet
module Lsdb = Pr_proto.Lsdb
module Ls_flood = Pr_proto.Ls_flood
module Policy_route = Pr_proto.Policy_route
module Design_point = Pr_proto.Design_point

let probe_synth = Pr_proto.Probe.make "lshbh.synth"

type message = Lsdb.lsa

type node = {
  (* (src, dst, class) -> (region version, computed policy route).
     Entries are tagged with the region version they were computed at
     and discarded lazily on lookup — an invalidating database change
     makes every tagged entry stale at once without an eager flush. *)
  route_cache : (int * int * int, int * Pr_topology.Path.t option) Hashtbl.t;
  (* Delta-scoped invalidation: [region_version] advances to the
     database version only when a drained delta can actually touch
     routes over this AD's reachable region; changes confined to
     disconnected parts of the internet leave the cache valid. [reach]
     memoizes the region between out-of-scope deltas. *)
  mutable region_version : int;
  mutable reach : Pr_util.Bitset.t option;
}

type t = {
  graph : Graph.t;
  net : message Network.t;
  flood : Ls_flood.t;
  nodes : node array;
}

let name = "ls-hbh-pt"

let design_point =
  Design_point.make Design_point.Link_state Design_point.Hop_by_hop
    Design_point.Policy_terms

let create graph config net =
  let n = Graph.n graph in
  let terms_for ad = (Config.transit config ad).Transit_policy.terms in
  let flood = Ls_flood.create net ~terms_for () in
  {
    graph;
    net;
    flood;
    nodes =
      Array.init n (fun _ ->
          { route_cache = Hashtbl.create 32; region_version = 0; reach = None });
  }

let start t = Ls_flood.start t.flood

let handle_message t ~at ~from lsa = Ls_flood.handle_message t.flood ~at ~from lsa

let handle_link t ~at ~link ~up = Ls_flood.handle_link t.flood ~at ~link ~up

let reset_node t ~at =
  let node = t.nodes.(at) in
  Hashtbl.reset node.route_cache;
  node.reach <- None;
  Ls_flood.reset_node t.flood at

(* Drain the AD's pending delta and advance its region version iff the
   delta is in scope: some changed origin lies inside (or newly
   attaches to) the region the AD's routes are computed over. *)
let sync_region t at =
  let node = t.nodes.(at) in
  match Ls_flood.take_delta t.flood at with
  | Ls_flood.Unchanged -> ()
  | Ls_flood.Full ->
    node.region_version <- Ls_flood.db_version t.flood at;
    node.reach <- None
  | Ls_flood.Origins os ->
    let reach =
      match node.reach with
      | Some r -> r
      | None ->
        let r = Ls_flood.reachable_set t.flood at in
        node.reach <- Some r;
        r
    in
    if Ls_flood.delta_in_scope t.flood at ~reach os then begin
      node.region_version <- Ls_flood.db_version t.flood at;
      node.reach <- None
    end

(* The uniform computation every AD replicates: the policy-constrained
   shortest route for the flow, from the flow's *source*, over this
   AD's own database. Source selection criteria are NOT applied — they
   are not advertised, so no transit AD could stay consistent with
   them. *)
let compute_route t at (flow : Flow.t) =
  let n = Graph.n t.graph in
  let key = (flow.Flow.src, flow.Flow.dst, Flow.class_key flow) in
  let node = t.nodes.(at) in
  sync_region t at;
  let version = node.region_version in
  match Hashtbl.find_opt node.route_cache key with
  | Some (v, cached) when v = version -> cached
  | _ ->
    let db = Ls_flood.db t.flood at in
    let engine = Policy_route.engine db ~n flow in
    let path, work = Policy_route.shortest engine () in
    Pr_proto.Probe.computation probe_synth t.net ~at ~work ();
    Hashtbl.replace node.route_cache key (version, path);
    path

(* Adversarial surface: delegated to the shared flood. The Policy
   Terms riding in each LSA are what make this design checkable — a
   forged or leaked term fails {!Ls_flood.check_lsa}'s ownership rule
   at the first honest hop. *)

let check_update t ~at ~from:_ lsa = Ls_flood.check_lsa t.flood ~at lsa

let corrupt_update t ~rng lsa = Ls_flood.corrupt_lsa t.flood ~rng lsa

let forge_update t ~origin = Ls_flood.forge_lsa t.flood origin

let audit_state t ~at = Ls_flood.audit_db t.flood ~at

let resync t ~at ~nbr = Ls_flood.resync t.flood ~at ~nbr

let prepare_flow _t _flow = Packet.no_prep

let originate _t _packet = ()

let rec successor_on path at =
  match path with
  | [] | [ _ ] -> None
  | x :: (y :: _ as rest) -> if x = at then Some y else successor_on rest at

let forward t ~at ~from:_ packet =
  let flow = packet.Packet.flow in
  if at = flow.Flow.dst then Packet.Deliver
  else
    match compute_route t at flow with
    | None -> Packet.Drop "no policy route"
    | Some path -> (
      match successor_on path at with
      | Some next -> Packet.Forward next
      | None -> Packet.Drop "not on my computed route (inconsistent databases)")

(* Only entries computed at the current region version count as
   routing state — stale tagged entries are garbage awaiting reuse of
   their key, exactly as the eager-flush scheme would have dropped. *)
let cache_entries t ad =
  sync_region t ad;
  let version = t.nodes.(ad).region_version in
  Hashtbl.fold
    (fun _ (v, _) acc -> if v = version then acc + 1 else acc)
    t.nodes.(ad).route_cache 0

let table_entries t ad = Ls_flood.db_entries t.flood ad + cache_entries t ad

let computed_route t ~at flow = compute_route t at flow
