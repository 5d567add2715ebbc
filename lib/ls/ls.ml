module Graph = Pr_topology.Graph
module Spf = Pr_topology.Spf
module Network = Pr_sim.Network
module Flow = Pr_policy.Flow
module Packet = Pr_proto.Packet
module Lsdb = Pr_proto.Lsdb
module Ls_flood = Pr_proto.Ls_flood
module Design_point = Pr_proto.Design_point

let probe_spf = Pr_proto.Probe.make "ls.spf"

type message = Lsdb.lsa

type node = {
  mutable next_hops : Pr_topology.Ad.id array;
      (* -1 = unreachable; an SPF replaces the array, never writes it *)
  mutable reachable : int;  (* entries of [next_hops] that are >= 0 *)
  (* Database version the tree was computed at; -1 = never. The tree is
     a per-source SPF cache: fresh while the version still matches. *)
  mutable computed_version : int;
}

type t = {
  graph : Graph.t;
  net : message Network.t;
  flood : Ls_flood.t;
  nodes : node array;
  unreached : Pr_topology.Ad.id array;
      (* all -1: the next hops every node starts (and restarts) on *)
  mutable spf_count : int;
}

let name = "link-state"

let design_point =
  Design_point.make Design_point.Link_state Design_point.Hop_by_hop
    Design_point.In_topology

(* The static filler [nodes] is made over ({!Pr_util.Filler}). *)
let no_node = { next_hops = [||]; reachable = 0; computed_version = -1 }

let create graph _config net =
  let n = Graph.n graph in
  let flood = Ls_flood.create net ~terms_for:(fun _ -> []) () in
  let unreached = Array.make n (-1) in
  {
    graph;
    net;
    flood;
    nodes =
      Pr_util.Filler.init ~filler:no_node n (fun _ ->
          { next_hops = unreached; reachable = 0; computed_version = -1 });
    unreached;
    spf_count = 0;
  }

let flood t = t.flood

include Ls_flood.Members (struct
  type proto = t

  let flood = flood
end)

let reset_node t ~at =
  let node = t.nodes.(at) in
  node.next_hops <- t.unreached;
  node.reachable <- 0;
  node.computed_version <- -1;
  Ls_flood.reset_node t.flood at

(* Dijkstra over the AD's database: an adjacency counts once both
   ends advertise it. The tree's first hops are the next hops. *)
let run_spf t ad ~version =
  let db = Ls_flood.db t.flood ad in
  let relax u f = Lsdb.iter_confirmed db u ~f in
  let tree, work = Spf.search ~n:(Graph.n t.graph) ~src:ad ~relax () in
  t.spf_count <- t.spf_count + 1;
  Pr_proto.Probe.computation probe_spf t.net ~at:ad ~work ();
  let node = t.nodes.(ad) in
  node.next_hops <- tree.Spf.first_hop;
  node.reachable <-
    Array.fold_left (fun acc nh -> if nh >= 0 then acc + 1 else acc) 0 node.next_hops;
  node.computed_version <- version

(* Scoped invalidation: the version moved, but if every changed origin
   is provably outside the region this AD's tree spans (the flood's
   {!Ls_flood.stale} rule over the ADs the cached tree reaches), the
   cached next hops are still exact and the recompute is skipped.
   Trees are always rebuilt by the one full-SPF code path, never
   repaired in place: per-AD incremental repairs could break equal-cost
   ties differently at different ADs, and hop-by-hop forwarding over
   disagreeing trees can loop. *)
let ensure_fresh t ad =
  let version = Ls_flood.db_version t.flood ad in
  let node = t.nodes.(ad) in
  if node.computed_version <> version then
    if Ls_flood.stale t.flood ad ~in_region:(fun v -> node.next_hops.(v) >= 0) then
      run_spf t ad ~version
    else node.computed_version <- version

let prepare_flow _t _flow = Packet.no_prep

let originate _t _packet = ()

let forward t ~at ~from:_ packet =
  let dst = packet.Packet.flow.Flow.dst in
  if at = dst then Packet.Deliver
  else begin
    ensure_fresh t at;
    let nh = t.nodes.(at).next_hops.(dst) in
    if nh < 0 then Packet.Drop "no route" else Packet.Forward nh
  end

let routes t ad = t.nodes.(ad).reachable

let table_entries t ad = Ls_flood.db_entries t.flood ad + routes t ad

let next_hop_of t ~at ~dst =
  ensure_fresh t at;
  let nh = t.nodes.(at).next_hops.(dst) in
  if nh < 0 then None else Some nh

let spf_runs t = t.spf_count
