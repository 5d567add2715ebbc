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
  mutable next_hops : Pr_topology.Ad.id array;  (* -1 = unreachable *)
  (* Database version the tree was computed at; -1 = never. The tree is
     a per-source SPF cache: fresh while the version still matches. *)
  mutable computed_version : int;
}

type t = {
  graph : Graph.t;
  net : message Network.t;
  flood : Ls_flood.t;
  nodes : node array;
  mutable spf_count : int;
}

let name = "link-state"

let design_point =
  Design_point.make Design_point.Link_state Design_point.Hop_by_hop
    Design_point.In_topology

let create graph _config net =
  let n = Graph.n graph in
  let flood = Ls_flood.create net ~terms_for:(fun _ -> []) () in
  {
    graph;
    net;
    flood;
    nodes = Array.init n (fun _ -> { next_hops = Array.make n (-1); computed_version = -1 });
    spf_count = 0;
  }

let start t = Ls_flood.start t.flood

let handle_message t ~at ~from lsa = Ls_flood.handle_message t.flood ~at ~from lsa

let handle_link t ~at ~link:_ ~up = Ls_flood.handle_link t.flood ~at ~up

let reset_node t ~at =
  let node = t.nodes.(at) in
  Array.fill node.next_hops 0 (Array.length node.next_hops) (-1);
  node.computed_version <- -1;
  Ls_flood.reset_node t.flood at

(* Dijkstra over the AD's database: an adjacency counts once both
   ends advertise it. The tree's first hops are the next hops. *)
let run_spf t ad ~version =
  let db = Ls_flood.db t.flood ad in
  let relax u f =
    List.iter
      (fun (a : Lsdb.adjacency) ->
        match Lsdb.bidirectional db u a.Lsdb.nbr with
        | None -> ()
        | Some cost -> f a.Lsdb.nbr cost)
      (Lsdb.adjacencies_of db u)
  in
  let tree, work = Spf.search ~n:(Graph.n t.graph) ~src:ad ~relax () in
  t.spf_count <- t.spf_count + 1;
  Pr_proto.Probe.computation probe_spf t.net ~at:ad ~work ();
  t.nodes.(ad).next_hops <- tree.Spf.first_hop;
  t.nodes.(ad).computed_version <- version

(* Scoped invalidation: the version moved, but if every changed origin
   is provably outside the region this AD's tree spans — not reachable
   in the cached tree and not newly attached to it — the cached next
   hops are still exact and the recompute is skipped. The reachability
   proxy is the cached tree itself: [next_hops.(o) >= 0] iff [o] was
   reachable when the tree was computed. Trees are always rebuilt by
   the one full-SPF code path, never repaired in place: per-AD
   incremental repairs could break equal-cost ties differently at
   different ADs, and hop-by-hop forwarding over disagreeing trees can
   loop. *)
let delta_out_of_scope t ad = function
  | Ls_flood.Unchanged -> true
  | Ls_flood.Full -> false
  | Ls_flood.Origins os ->
    let node = t.nodes.(ad) in
    node.computed_version >= 0
    &&
    let db = Ls_flood.db t.flood ad in
    let in_tree v = v = ad || (v >= 0 && v < Array.length node.next_hops && node.next_hops.(v) >= 0) in
    not
      (List.exists
         (fun o ->
           in_tree o
           || List.exists
                (fun (a : Lsdb.adjacency) ->
                  in_tree a.Lsdb.nbr && Lsdb.bidirectional db o a.Lsdb.nbr <> None)
                (Lsdb.adjacencies_of db o))
         os)

let ensure_fresh t ad =
  let version = Ls_flood.db_version t.flood ad in
  if t.nodes.(ad).computed_version <> version then begin
    let delta = Ls_flood.take_delta t.flood ad in
    if delta_out_of_scope t ad delta then t.nodes.(ad).computed_version <- version
    else run_spf t ad ~version
  end

(* Adversarial surface: the shared flood realizes all of it (see
   {!Ls_flood}'s adversarial section). *)

let check_update t ~at ~from:_ lsa = Ls_flood.check_lsa t.flood ~at lsa

let corrupt_update t ~rng lsa = Ls_flood.corrupt_lsa t.flood ~rng lsa

let forge_update t ~origin = Ls_flood.forge_lsa t.flood origin

let audit_state t ~at = Ls_flood.audit_db t.flood ~at

let resync t ~at ~nbr = Ls_flood.resync t.flood ~at ~nbr

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

let table_entries t ad =
  Ls_flood.db_entries t.flood ad
  + Array.fold_left (fun acc nh -> if nh >= 0 then acc + 1 else acc) 0 t.nodes.(ad).next_hops

let next_hop_of t ~at ~dst =
  ensure_fresh t at;
  let nh = t.nodes.(at).next_hops.(dst) in
  if nh < 0 then None else Some nh

let spf_runs t = t.spf_count
